package main

import (
	"time"

	"diablo/internal/core"
	"diablo/internal/kernel"
	"diablo/internal/sim"
	"diablo/internal/vswitch"
)

// clusterProbe times one cluster's life from outside the program. The
// workload marks start before it asks core to build the cluster; the
// OnCluster hook marks wired, and the first typed-event dispatch marks first
// (install work runs between the two). The mark comes from a wrapper on every
// typed-event handler that reinstalls the plain handlers on its first call,
// so the rest of the run dispatches exactly as an uninstrumented one and the
// simulated outputs are untouched.
type clusterProbe struct {
	start, wired, first time.Time
	cluster             *core.Cluster
}

// hook returns the OnCluster function to hand to a core config.
//   - o.layers non-nil: every handler stays wrapped with a counter and a
//     timer (the traced pass); the layer timer marks first.
//   - o.setupOnly: a closure event at the current simulated time marks first
//     and halts the run. It adds an event, so such runs report no outputs.
//   - a partitioned cluster has no single handler table to wrap; first stays
//     unmarked and only whole-execution times are used.
func (p *clusterProbe) hook(o runOpts) func(*core.Cluster) {
	return func(c *core.Cluster) {
		p.wired = time.Now()
		p.cluster = c
		s := c.Scheduler()
		if o.setupOnly {
			s.At(s.Now(), func() {
				p.first = time.Now()
				// From t=0 a collapsed multi-rack cluster halts at the
				// current barrier-grid point, which does not stop it; one
				// picosecond later it halts at the first barrier.
				s.After(1, c.Halt)
			})
			return
		}
		reg, ok := s.(sim.HandlerRegistrar)
		if !ok {
			return
		}
		if o.layers != nil {
			o.layers.wrap(reg, &p.first)
			return
		}
		(&firstMark{engine: reg, at: &p.first}).install()
	}
}

// setup is the host time from the workload's start to the first dispatch.
func (p *clusterProbe) setup() time.Duration { return p.first.Sub(p.start) }

// firstMark is a sim.HandlerRegistrar that records the host time of the
// first typed dispatch and then puts the unwrapped handlers back.
type firstMark struct {
	engine   sim.HandlerRegistrar
	at       *time.Time
	kinds    []sim.EvKind
	handlers []sim.Handler
}

// install re-registers the model packages' handlers through f.
func (f *firstMark) install() {
	kernel.RegisterEventHandlers(f)
	vswitch.RegisterEventHandlers(f)
}

// RegisterHandler implements sim.HandlerRegistrar.
func (f *firstMark) RegisterHandler(k sim.EvKind, h sim.Handler) {
	f.kinds = append(f.kinds, k)
	f.handlers = append(f.handlers, h)
	f.engine.RegisterHandler(k, func(now sim.Time, ev sim.Event) {
		if f.at.IsZero() {
			*f.at = time.Now()
			for i, kind := range f.kinds {
				f.engine.RegisterHandler(kind, f.handlers[i])
			}
		}
		h(now, ev)
	})
}

// packets counts simulated packets the way core.ModelBenchStats does: NIC
// transmits plus loopback deliveries.
func (p *clusterProbe) packets() uint64 {
	var n uint64
	for _, m := range p.cluster.Machines {
		n += m.NIC().Stats.TxPackets + m.Stats.LoopbackPkts
	}
	return n
}

// leaked sweeps in-flight packets back to the pools and returns what is
// still live; a balanced packet lifecycle leaves zero. The cluster must not
// run again afterwards.
func (p *clusterProbe) leaked() int64 {
	p.cluster.ReleaseInFlight()
	return p.cluster.PacketPoolStats().Live()
}

// tcpCounts sums TCP loss recovery across every machine of the cluster.
func (p *clusterProbe) tcpCounts() (retransmits, timeouts uint64) {
	for _, m := range p.cluster.Machines {
		st := m.TCPStats()
		retransmits += st.Retransmits
		timeouts += st.Timeouts
	}
	return retransmits, timeouts
}

// layerTimer is a sim.HandlerRegistrar that wraps every handler registered
// through it with a dispatch counter and a busy-time accumulator, then
// installs the wrapper on the engine it was pointed at. Counts and busy time
// accumulate across every cluster wrapped, so a campaign's cells add up.
type layerTimer struct {
	engine sim.HandlerRegistrar // the cluster being wrapped
	first  *time.Time           // its probe's first-dispatch mark
	wired  [256]bool            // kinds that have a wrapper
	n      [256]uint64
	busy   [256]time.Duration
	// span is the host time from each wrapped cluster's first typed dispatch
	// to its last one, summed: the traced engine wall.
	span time.Duration
	last time.Time
}

// wrap re-registers the model packages' handlers on reg through t (kernel
// cascades to nic and link; vswitch to link) and marks *first at the first
// dispatch.
func (t *layerTimer) wrap(reg sim.HandlerRegistrar, first *time.Time) {
	t.engine, t.first = reg, first
	kernel.RegisterEventHandlers(t)
	vswitch.RegisterEventHandlers(t)
}

// RegisterHandler implements sim.HandlerRegistrar.
func (t *layerTimer) RegisterHandler(k sim.EvKind, h sim.Handler) {
	t.wired[k] = true
	t.engine.RegisterHandler(k, func(now sim.Time, ev sim.Event) {
		start := time.Now()
		h(now, ev)
		end := time.Now()
		t.busy[k] += end.Sub(start)
		t.n[k]++
		if t.first.IsZero() {
			*t.first = start
		}
		t.last = end
	})
}

// closeSpan folds the finished cluster's dispatch span into the total.
func (t *layerTimer) closeSpan() {
	t.span += t.last.Sub(*t.first)
}

// typed returns the number of typed dispatches counted.
func (t *layerTimer) typed() uint64 {
	var n uint64
	for k := range t.n {
		n += t.n[k]
	}
	return n
}

// totalBusy returns the summed busy time of every wrapped handler.
func (t *layerTimer) totalBusy() time.Duration {
	var d time.Duration
	for k := range t.busy {
		d += t.busy[k]
	}
	return d
}
