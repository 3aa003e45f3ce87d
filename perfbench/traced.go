package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"diablo/internal/obs"
	"diablo/internal/sim"
)

// layer groups the typed-event kinds one model layer handles.
type layer struct {
	name  string
	kinds []sim.EvKind
	// busyMetric reports <name>.busy_s as a metric. A layer some workload
	// never dispatches (loopback on all three, thread wakes on incast) would
	// report a busy time of exactly 0 on every run; its busy time is printed
	// in the table only.
	busyMetric bool
}

var layers = []layer{
	{"kernel.tick", []sim.EvKind{sim.EvTimerTick}, true},
	{"kernel.span", []sim.EvKind{sim.EvKernelSpan}, true},
	{"kernel.wake", []sim.EvKind{sim.EvThreadWake, sim.EvThreadWakeBlocked}, false},
	{"kernel.loopback", []sim.EvKind{sim.EvLoopback}, false},
	{"link.hop", []sim.EvKind{sim.EvPacketHop}, true},
	{"vswitch.txdone", []sim.EvKind{sim.EvSwitchTxDone}, true},
	{"vswitch.wake", []sim.EvKind{sim.EvSwitchWake}, true},
	{"nic.tx", []sim.EvKind{sim.EvNicTx}, true},
	{"nic.rxintr", []sim.EvKind{sim.EvNicRxIntr}, true},
}

// tracedPass measures the per-layer metrics: one untraced execution (the
// reference), one traced execution, and one on the partitioned engine with
// one worker. All three must produce the same simulated outputs.
func tracedPass(w *workload, seed uint64) (*result, error) {
	var v verdict

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := w.run(seed)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	lt := &layerTimer{}
	traced, err := w.replay(seed, runOpts{layers: lt})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	part, err := w.replay(seed, runOpts{partitioned: true})
	if err != nil {
		return nil, err
	}

	v.compare("untraced vs traced", ref, traced, false)
	if w.name == "mc-array" {
		// At 1984 nodes the engines are known to disagree: observed, not gated.
		var engines verdict
		engines.compare("sequential vs partitioned", ref, part, true)
		v.observe(&xfailEngines, len(engines.problems) > 0)
		for _, p := range engines.problems {
			fmt.Printf("engine divergence: %s\n", p)
		}
	} else {
		v.compare("sequential vs partitioned", ref, part, true)
	}
	res := &result{Metrics: map[string]metric{}}
	for _, r := range []*runResult{ref, traced, part} {
		v.problems = append(v.problems, r.problems...)
		res.Attempted += r.ops
		res.Failed += r.failed
	}

	// The gated outputs the three executions share.
	fmt.Printf("%s seed %d digests:\n  untraced    %s\n  traced      %s\n  partitioned %s\n",
		w.name, seed, ref.summary(), traced.summary(), part.summary())

	m := res.Metrics
	count := func(name string, n uint64) { m[name] = metric{float64(n), "count"} }
	secs := func(name string, d time.Duration) { m[name] = metric{d.Seconds(), "s"} }

	engineWall := lt.span
	fmt.Printf("\n%s per-layer host time (traced engine wall %.3f s, %d events)\n", w.name, engineWall.Seconds(), traced.events)
	fmt.Printf("  %-18s %12s %10s %8s %10s\n", "layer", "dispatches", "busy_s", "share", "ns/event")
	row := func(name string, n uint64, busy time.Duration) {
		per := "-"
		if n > 0 && name != "sim (self)" { // self time is not spent per closure event
			per = fmt.Sprintf("%.0f", float64(busy.Nanoseconds())/float64(n))
		}
		fmt.Printf("  %-18s %12d %10.3f %7.1f%% %10s\n", name, n, busy.Seconds(), 100*busy.Seconds()/engineWall.Seconds(), per)
	}
	for _, l := range layers {
		var n uint64
		var busy time.Duration
		for _, k := range l.kinds {
			n += lt.n[k]
			busy += lt.busy[k]
		}
		count(l.name+".n", n)
		if l.busyMetric {
			secs(l.name+".busy_s", busy)
		}
		row(l.name, n, busy)
	}
	// Kinds a later model registers that the table does not know yet: shown,
	// not reported as metrics.
	for k := range lt.wired {
		if kind := sim.EvKind(k); lt.wired[k] && !inLayers(kind) {
			row("other "+kind.String(), lt.n[k], lt.busy[k])
		}
	}
	closure := traced.events - lt.typed()
	self := engineWall - lt.totalBusy()
	row("sim (self)", closure, self)
	count("sim.events", traced.events)
	count("sim.closure_events", closure)
	secs("sim.self_s", self)

	// The partitioned engine has no single handler table to mark a first
	// dispatch on, so this ratio compares whole executions, set-up included.
	m["sim.partitioned_over_sequential"] = metric{total(part.cells).Seconds() / total(ref.cells).Seconds(), "x"}
	m["trace.overhead_x"] = metric{traced.wall.Seconds() / ref.wall.Seconds(), "x"}
	secs("core.new_s", traced.newS)
	secs("core.install_s", traced.installS)

	cells := append([]time.Duration(nil), ref.cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	secs("campaign.cell_s.p50", cells[len(cells)/2])
	secs("campaign.cell_s.max", cells[len(cells)-1])
	report := ref.reportS
	if report == 0 {
		report = traced.reportS
	}
	secs("campaign.report_s", report)
	var encode time.Duration
	for _, man := range traced.manifests {
		t0 := time.Now()
		b, err := man.EncodeJSON()
		if err != nil {
			return nil, err
		}
		_ = obs.HashBytes(b)
		encode += time.Since(t0)
	}
	secs("obs.encode_s", encode)

	packets := traced.packets
	m["packet.allocs_per_pkt"] = metric{float64(after.Mallocs-before.Mallocs) / float64(packets), "allocs/pkt"}
	count("packet.leaked", uint64(max(ref.leaked, traced.leaked, part.leaked)))
	count("runtime.gc_cycles", uint64(after.NumGC-before.NumGC))
	m["runtime.gc_pause_s"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9, "s"}

	c := traced.counts
	count("tcp.retransmits", c.retransmits)
	count("tcp.timeouts", c.timeouts)
	count("vswitch.drops", c.drops)
	count("memcache.retried", c.retried)
	count("memcache.lost", c.lost)

	fmt.Printf("  partitioned/sequential wall %.3f, trace overhead %.3fx, core.new %.3f s, core.install %.3f s\n\n",
		m["sim.partitioned_over_sequential"].Value, m["trace.overhead_x"].Value, traced.newS.Seconds(), traced.installS.Seconds())
	v.report(res)
	return res, nil
}

func inLayers(k sim.EvKind) bool {
	for _, l := range layers {
		for _, lk := range l.kinds {
			if lk == k {
				return true
			}
		}
	}
	return false
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
