package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// ParallelEngine runs several partitions under conservative quantum-barrier
// synchronization. It mirrors DIABLO's physical organization: each FPGA ran
// its own simulation scheduler and synchronized with its neighbours over
// serial links at a granularity bounded by the target link latency. Here a
// partition is typically one simulated rack (plus one partition for the
// aggregation fabric), the quantum is the minimum latency of any
// inter-partition link, and cross-partition events are exchanged only at
// quantum barriers.
//
// Quantum boundaries lie on a fixed grid (integer multiples of the quantum),
// so the barrier schedule — and therefore the event order — is a property of
// the model, not of the execution: running the same model with 1, 2 or N
// worker threads produces byte-identical results.
//
// Determinism: each partition's engine is deterministic on its own, and
// cross-partition messages are merged in (time, source partition, send
// sequence) order before being scheduled, so a run's outcome is a pure
// function of the model and its seeds regardless of worker count (asserted
// in tests).
//
// The per-quantum machinery is engineered to stay off the allocator and off
// the scheduler: workers synchronize through a reusable spin-then-park
// generation barrier (see barrier.go) instead of per-quantum channel sends,
// each quantum's earliest-next-event time is maintained incrementally
// (per-worker minima reduced at the barrier plus the timestamps of delivered
// messages) instead of re-scanning every partition, and cross-partition
// messages are batched per (edge, quantum) into reusable slabs — a typed
// record per message, no per-message closure — then merged with one typed
// sort at the barrier (SimBricks-style batched exchange rather than
// per-message handoff). Barrier/sync cost is what bounds parallel-simulation
// scaling, so these paths are benchmarked in BenchmarkSection5EngineParallel
// and gated in CI (cmd/benchjson).
type ParallelEngine struct {
	parts   []*Partition
	quantum Duration
	now     Time
	qEnd    Time // end of the quantum currently executing (Send's horizon)
	workers int
	stop    atomic.Bool

	// handlers is the jump table shared by every partition's engine, so a
	// typed event crossing partitions dispatches through the same handler it
	// would locally.
	handlers *handlerTable

	// edges[src*P+dst] is the reusable slab of messages queued on edge
	// src->dst during the current quantum. A slab is only ever appended to
	// by src's worker and drained by the coordinator at the barrier, and it
	// keeps its capacity across quanta.
	edges []xslab

	// earliest caches the minimum NextEventTime across partitions; it is
	// exact at every quantum barrier (workers fold their partitions' minima,
	// message delivery folds in delivered timestamps).
	earliest Time
	// arena is the coordinator's per-quantum scratch arena, reset at every
	// barrier; pending (the barrier-exchange merge buffer) is its first
	// tenant. Partitions carry their own arenas (see Partition.Arena).
	arena   Arena
	pending *Scratch[xmsg]

	// failedCrossCancels counts Cancel calls with a non-zero EventID through
	// a Cross scheduler (see crossScheduler.Cancel). Atomic: workers may
	// cancel concurrently during a quantum.
	failedCrossCancels atomic.Uint64

	// intro, when non-nil, collects per-quantum introspection (see
	// EnableIntrospection). nil keeps the hot path at one pointer test per
	// quantum.
	intro *engineIntro

	// Executed sums dispatched events across partitions after each run.
	Executed uint64
}

// Partition is the per-partition scheduling handle. It satisfies Scheduler,
// so model components wired into partition i schedule local events through
// it exactly as they would on a sequential Engine.
type Partition struct {
	pe      *ParallelEngine
	id      int
	eng     *Engine
	sendSeq uint64
	// dirty lists the destination partitions this partition has queued
	// messages for in the current quantum (first-touch order), so the
	// barrier exchange visits only populated edges instead of all P^2.
	dirty []int32
	// arena is the partition's per-quantum scratch arena (see arena.go),
	// reset by the coordinator at every barrier. Only this partition's
	// worker may touch it between barriers.
	arena Arena
}

// xslab is one edge's reusable message batch.
type xslab struct {
	recs []xmsg
}

// xmsg is a cross-partition message: the event record ev, bound for
// partition dst at time at.
type xmsg struct {
	at  Time
	seq uint64
	src int32
	dst int32
	ev  Event
}

// xmsgCompare orders messages in (time, source partition, send sequence)
// order — the model-defined total order barrier merges use.
func xmsgCompare(a, b xmsg) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.src < b.src:
		return -1
	case a.src > b.src:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// NewParallelEngine creates an engine with n partitions synchronized on a
// quantum-aligned barrier grid. quantum must be at most the minimum latency
// of any cross-partition interaction in the model, or causality would break;
// the Send method enforces this at runtime.
func NewParallelEngine(n int, quantum Duration) *ParallelEngine {
	if n <= 0 {
		panic("sim: need at least one partition")
	}
	if quantum <= 0 {
		panic("sim: quantum must be positive")
	}
	pe := &ParallelEngine{quantum: quantum, workers: 1}
	pe.handlers = new(handlerTable)
	pe.pending = NewScratch[xmsg](&pe.arena)
	pe.edges = make([]xslab, n*n)
	for i := 0; i < n; i++ {
		eng := NewEngine()
		eng.handlers = pe.handlers // one table for every partition
		pe.parts = append(pe.parts, &Partition{pe: pe, id: i, eng: eng})
	}
	return pe
}

// RegisterHandler installs a typed-event handler on the table shared by all
// partitions. Register before the run starts (core.New does): workers read
// the table without synchronization.
func (pe *ParallelEngine) RegisterHandler(k EvKind, h Handler) {
	pe.handlers.register(k, h)
}

// FailedCrossCancels reports how many times model code tried to cancel a
// non-zero EventID through a Cross scheduler. Cross-partition events cannot
// be cancelled (see crossScheduler.Cancel); a non-zero count means some
// component is holding an EventID that never named a cancellable event.
func (pe *ParallelEngine) FailedCrossCancels() uint64 {
	return pe.failedCrossCancels.Load()
}

// Partition returns the scheduling handle for partition i. Model components
// in partition i must schedule all their local events through this handle.
func (pe *ParallelEngine) Partition(i int) *Partition { return pe.parts[i] }

// Partitions returns the number of partitions.
func (pe *ParallelEngine) Partitions() int { return len(pe.parts) }

// Quantum returns the synchronization quantum.
func (pe *ParallelEngine) Quantum() Duration { return pe.quantum }

// Now returns the last completed barrier time.
func (pe *ParallelEngine) Now() Time { return pe.now }

// SetWorkers sets the number of OS-level worker goroutines that execute
// partitions each quantum. Worker count affects wall-clock speed only, never
// results: partitions are statically assigned to workers and every quantum
// is a full barrier. Values are clamped to [1, Partitions()]; 1 (the
// default) runs every partition inline on the caller's goroutine.
func (pe *ParallelEngine) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	if w > len(pe.parts) {
		w = len(pe.parts)
	}
	pe.workers = w
}

// Workers returns the configured worker count.
func (pe *ParallelEngine) Workers() int { return pe.workers }

// Halt requests that the run stop at the next quantum barrier. It is safe to
// call from any partition's event context during a run: the current quantum
// completes in full (on every partition) and pending cross-partition
// messages are exchanged before RunUntil returns, so a halted run remains
// deterministic and resumable.
func (pe *ParallelEngine) Halt() { pe.stop.Store(true) }

// ID returns the partition index.
func (p *Partition) ID() int { return p.id }

// Now returns the partition's local simulated time. Within a quantum this
// may run ahead of other partitions; it never exceeds the quantum boundary.
func (p *Partition) Now() Time { return p.eng.Now() }

// At schedules fn locally at the absolute time at.
func (p *Partition) At(at Time, fn func()) EventID { return p.eng.At(at, fn) }

// After schedules fn locally d after the partition's current time.
func (p *Partition) After(d Duration, fn func()) EventID { return p.eng.After(d, fn) }

// AtEvent schedules a typed event record locally at the absolute time at.
func (p *Partition) AtEvent(at Time, ev Event) EventID { return p.eng.AtEvent(at, ev) }

// AfterEvent schedules a typed event record locally d after the partition's
// current time.
func (p *Partition) AfterEvent(d Duration, ev Event) EventID { return p.eng.AfterEvent(d, ev) }

// Cancel prevents a locally scheduled event from running.
func (p *Partition) Cancel(id EventID) { p.eng.Cancel(id) }

// Pending reports the number of events queued on the partition.
func (p *Partition) Pending() int { return p.eng.Pending() }

// Arena returns the partition's per-quantum scratch arena. The coordinator
// resets it at every barrier, so Scratch buffers bound to it (sim.NewScratch)
// are valid for exactly the quantum in progress. Touch it only from this
// partition's event context.
func (p *Partition) Arena() *Arena { return &p.arena }

// ForEachPending invokes fn for every typed event still queued on the
// partition; see Engine.ForEachPending. Call only on a halted engine.
func (p *Partition) ForEachPending(fn func(Event)) { p.eng.ForEachPending(fn) }

// Send delivers fn to partition dst at absolute time at; it is shorthand for
// ParallelEngine.Send from this partition.
func (p *Partition) Send(dst int, at Time, fn func()) { p.pe.Send(p.id, dst, at, fn) }

// SendEvent delivers a typed event record to partition dst at absolute time
// at; it is shorthand for ParallelEngine.SendEvent from this partition.
func (p *Partition) SendEvent(dst int, at Time, ev Event) { p.pe.SendEvent(p.id, dst, at, ev) }

// Send delivers fn to partition dst at absolute time at. It must be called
// from within partition src (i.e., from an event callback running on
// partition src's engine). at must not precede the end of the executing
// quantum; this is the conservative-lookahead requirement that lets
// partitions run a full quantum without hearing from their neighbours.
func (pe *ParallelEngine) Send(src, dst int, at Time, fn func()) {
	pe.sendRec(src, dst, xmsg{at: at, src: int32(src), dst: int32(dst), ev: Event{Kind: evFunc, Tgt: fn}})
}

// SendEvent delivers a typed event record to partition dst at absolute time
// at — the zero-allocation cross-partition lane. Same caller and lookahead
// rules as Send.
func (pe *ParallelEngine) SendEvent(src, dst int, at Time, ev Event) {
	checkKind(ev.Kind)
	pe.sendRec(src, dst, xmsg{at: at, src: int32(src), dst: int32(dst), ev: ev})
}

// sendRec batches a message into the reusable slab of the src->dst edge. The
// record's seq is assigned here (per source partition), completing the
// (time, source, sequence) merge key.
func (pe *ParallelEngine) sendRec(src, dst int, m xmsg) {
	p := pe.parts[src]
	if m.at < pe.qEnd {
		panic(fmt.Sprintf(
			"sim: cross-partition send %d->%d at %v violates conservative lookahead: "+
				"the current quantum ends at %v (quantum %v), so cross-partition events must "+
				"be scheduled at or after the barrier; lower the engine quantum below the "+
				"minimum inter-partition link latency",
			src, dst, m.at, pe.qEnd, pe.quantum))
	}
	p.sendSeq++
	m.seq = p.sendSeq
	slab := &pe.edges[src*len(pe.parts)+dst]
	if len(slab.recs) == 0 {
		p.dirty = append(p.dirty, int32(dst))
	}
	slab.recs = append(slab.recs, m)
}

// gridNext returns the earliest quantum-grid boundary strictly after t.
func (pe *ParallelEngine) gridNext(t Time) Time {
	q := Time(pe.quantum)
	return (t/q + 1) * q
}

// gridPrev returns the latest quantum-grid boundary strictly before t.
func (pe *ParallelEngine) gridPrev(t Time) Time {
	q := Time(pe.quantum)
	return (t - 1) / q * q
}

// RunUntil advances all partitions to the deadline, one grid-aligned quantum
// at a time, exchanging cross-partition messages at each barrier. It returns
// early when every queue drains or when Halt is called.
func (pe *ParallelEngine) RunUntil(deadline Time) {
	pe.stop.Store(false)
	var pool *workerPool
	if pe.workers > 1 {
		pool = newWorkerPool(pe.parts, pe.workers, pe.intro != nil)
		defer pool.close()
		if pe.intro != nil {
			// Collect barrier diagnostics before close releases the workers
			// (LIFO: this defer runs first). Wakes from the final release are
			// deliberately uncounted; these are best-effort diagnostics.
			defer func() {
				pe.intro.barrier.SpinWakes += pool.start.spinWakes.Load() + pool.done.spinWakes.Load()
				pe.intro.barrier.ParkWakes += pool.start.parkWakes.Load() + pool.done.parkWakes.Load()
			}()
		}
	}

	// Prime the earliest-event cache once; from here on it is maintained
	// incrementally at each barrier instead of re-scanning every partition.
	pe.earliest = Never
	for _, p := range pe.parts {
		if t := p.eng.NextEventTime(); t < pe.earliest {
			pe.earliest = t
		}
	}

	for pe.now < deadline && !pe.stop.Load() {
		// Skip ahead over quiet periods: if no partition has an event in the
		// next quantum, jump to the quantum containing the earliest event.
		// Outboxes are always empty here (flushed at the previous barrier).
		if pe.earliest == Never || pe.earliest > deadline {
			pe.now = deadline
			break
		}
		if g := pe.gridPrev(pe.earliest); g > pe.now {
			pe.now = g
		}
		qEnd := pe.gridNext(pe.now)
		if qEnd > deadline {
			qEnd = deadline
		}
		pe.qEnd = qEnd

		// Run every partition up to the barrier. Each executor also reports
		// the minimum next-event time over the partitions it ran.
		if pool != nil {
			pe.earliest = pool.runQuantum(qEnd)
		} else {
			pe.earliest = Never
			for _, p := range pe.parts {
				p.eng.RunUntil(qEnd)
				if t := p.eng.NextEventTime(); t < pe.earliest {
					pe.earliest = t
				}
			}
		}
		pe.now = qEnd
		if pe.intro != nil {
			pe.intro.note(pe.parts)
		}

		// Exchange cross-partition messages deterministically: gather the
		// populated edge slabs (each partition's dirty list names them, so
		// cost scales with traffic, not with P^2), merge in (time, source
		// partition, send sequence) order — a total order that depends only
		// on the model — and bulk-schedule into the destination engines.
		// The merge buffer is arena scratch and the edge slabs are reused
		// quantum after quantum: reset, never reallocated.
		pe.arena.Reset()
		for _, p := range pe.parts {
			p.arena.Reset()
		}
		pending := pe.pending.Take()
		np := len(pe.parts)
		for _, p := range pe.parts {
			if len(p.dirty) == 0 {
				continue
			}
			for _, dst := range p.dirty {
				slab := &pe.edges[p.id*np+int(dst)]
				pending = append(pending, slab.recs...)
				clear(slab.recs) // drop payload references, keep capacity
				slab.recs = slab.recs[:0]
			}
			p.dirty = p.dirty[:0]
		}
		if len(pending) > 1 {
			slices.SortFunc(pending, xmsgCompare)
		}
		for i := range pending {
			m := &pending[i]
			pe.parts[m.dst].eng.schedule(m.at, &m.ev)
			if m.at < pe.earliest {
				pe.earliest = m.at
			}
		}
		clear(pending) // release delivered payloads before the workers resume
		pe.pending.Keep(pending[:0])
	}

	// On a drained or deadline exit, advance lagging partition clocks to the
	// deadline (as the sequential engine does); a Halt freezes them at the
	// last completed barrier instead.
	if !pe.stop.Load() && deadline != Never {
		for _, p := range pe.parts {
			if p.eng.Now() < deadline {
				p.eng.RunUntil(deadline)
			}
		}
	}
	pe.Executed = 0
	for _, p := range pe.parts {
		pe.Executed += p.eng.Executed
	}
}

// Drained reports whether every partition's queue is empty.
func (pe *ParallelEngine) Drained() bool {
	for _, p := range pe.parts {
		if p.eng.NextEventTime() != Never {
			return false
		}
		if len(p.dirty) > 0 { // some edge slab still holds messages
			return false
		}
	}
	return true
}

// Cross returns a Scheduler that, from event context in partition src,
// schedules events onto partition dst. Now reads the source partition's
// clock; At and After route through Send, so the conservative-lookahead rule
// applies and the returned EventID is zero (cross-partition events cannot be
// cancelled). Links that span partitions are wired with a Cross scheduler as
// their delivery side.
func (pe *ParallelEngine) Cross(src, dst int) Scheduler {
	return crossScheduler{pe: pe, src: src, dst: dst}
}

type crossScheduler struct {
	pe       *ParallelEngine
	src, dst int
}

func (c crossScheduler) Now() Time { return c.pe.parts[c.src].eng.Now() }

func (c crossScheduler) At(at Time, fn func()) EventID {
	c.pe.Send(c.src, c.dst, at, fn)
	return EventID{}
}

func (c crossScheduler) After(d Duration, fn func()) EventID {
	return c.At(c.Now().Add(d), fn)
}

func (c crossScheduler) AtEvent(at Time, ev Event) EventID {
	c.pe.SendEvent(c.src, c.dst, at, ev)
	return EventID{}
}

func (c crossScheduler) AfterEvent(d Duration, ev Event) EventID {
	return c.AtEvent(c.Now().Add(d), ev)
}

// Cancel's contract on a Cross scheduler: cross-partition events cannot be
// cancelled — once a message is batched for the barrier exchange (and, a
// quantum later, scheduled on the destination engine), no handle back to it
// exists, which is why At/AtEvent return the zero EventID. Cancelling that
// zero ID is therefore the expected no-op. A *non-zero* ID reaching this
// method is a model bug — the caller is trying to cancel some other engine's
// event through a cross handle — and used to be silently swallowed; it is now
// recorded on the engine (ParallelEngine.FailedCrossCancels) so tests and
// harnesses can assert none occurred.
func (c crossScheduler) Cancel(id EventID) {
	if id == (EventID{}) {
		return
	}
	c.pe.failedCrossCancels.Add(1)
}

// workerMin is a per-worker minimum-next-event slot, padded to a cache line
// so concurrent writes at the barrier never false-share.
type workerMin struct {
	t Time
	_ [7]int64
}

// workerPool executes partitions across a fixed set of goroutines with a
// static, contiguous partition assignment (worker w owns partitions
// [w*n/W, (w+1)*n/W)), so the mapping — and the results — never depend on
// scheduling luck.
//
// Synchronization is two phaser gates per quantum instead of per-quantum
// channel traffic: the main goroutine publishes qEnd and advances the start
// gate; workers run their partitions, record the minimum next-event time of
// what they own, and the last arrival advances the done gate. Workers spin
// briefly and then park (see phaser), so an idle pool costs nothing and a
// busy one never pays a scheduler round-trip per quantum.
type workerPool struct {
	start    *phaser
	done     *phaser
	arrived  atomic.Int32
	workers  int32
	qEnd     Time // published before start.advance, read after start.await
	shutdown bool // likewise
	mins     []workerMin
}

func newWorkerPool(parts []*Partition, workers int, counting bool) *workerPool {
	pool := &workerPool{
		start:   newPhaser(),
		done:    newPhaser(),
		workers: int32(workers),
		mins:    make([]workerMin, workers),
	}
	pool.start.counting = counting
	pool.done.counting = counting
	n := len(parts)
	// Capture the start generation before any worker launches: a worker that
	// first reads the gate after the opening advance would wait one
	// generation too far and deadlock the first quantum.
	startGen := pool.start.current()
	for w := 0; w < workers; w++ {
		owned := parts[w*n/workers : (w+1)*n/workers]
		w := w
		go func() { //simlint:allow detlint engine-owned worker pool: static partition assignment, spin-then-park barrier, full barrier per quantum
			gen := startGen
			for {
				gen = pool.start.await(gen)
				if pool.shutdown {
					return
				}
				qEnd := pool.qEnd
				min := Never
				for _, p := range owned {
					p.eng.RunUntil(qEnd)
					if t := p.eng.NextEventTime(); t < min {
						min = t
					}
				}
				pool.mins[w].t = min
				if pool.arrived.Add(1) == pool.workers {
					pool.arrived.Store(0)
					pool.done.advance()
				}
			}
		}()
	}
	return pool
}

// runQuantum advances every partition to qEnd, waits for the barrier, and
// returns the minimum next-event time across all partitions.
func (pool *workerPool) runQuantum(qEnd Time) Time {
	last := pool.done.current()
	pool.qEnd = qEnd
	pool.start.advance()
	pool.done.await(last)
	min := Never
	for i := range pool.mins {
		if t := pool.mins[i].t; t < min {
			min = t
		}
	}
	return min
}

// close releases the workers; they observe shutdown and exit.
func (pool *workerPool) close() {
	pool.shutdown = true
	pool.start.advance()
}
