// Command benchjson runs the §5 engine-comparison probe and emits the
// result as machine-readable JSON (BENCH_results.json), so the repo carries
// a performance trajectory alongside its correctness gates. With -baseline
// it also acts as a regression gate: if sequential-engine throughput falls
// more than the tolerance below the committed baseline, it exits nonzero.
//
// Usage:
//
//	go run ./cmd/benchjson -o BENCH_results.json
//	go run ./cmd/benchjson -o BENCH_results.json -baseline bench_baseline.json
//
// The baseline file uses the same schema as the output, so refreshing it is
// just copying a BENCH_results.json produced on a reference machine (and
// sandbagging the throughput numbers enough to absorb CI hardware variance).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"diablo/internal/core"
)

// benchReport is the schema of BENCH_results.json and bench_baseline.json.
// Throughput fields are absolute for the machine that produced them; the
// regression gate compares ratios, not absolutes, which is why the committed
// baseline should be a conservative (sandbagged) reference value.
type benchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// ParallelMeaningful is false on a single-CPU runner, where the parallel
	// engine's throughput (and any speedup ratio derived from it) measures
	// context-switch overhead, not scaling. Readers — and the gates below —
	// must not treat speedup_x or the worker sweep as a regression signal
	// when this is false.
	ParallelMeaningful bool             `json:"parallel_meaningful"`
	EngineComparison   engineComparison `json:"engine_comparison"`
	// Model holds the model-level benches (full memcached/incast runs priced
	// per simulated packet). Absent in pre-model baselines, which the gates
	// treat as "not measured".
	Model *modelBench `json:"model,omitempty"`
}

// modelBench is the model_* block: the whole-stack counterpart of the
// engine-comparison microbench. allocs_per_packet is the tentpole number —
// the packet slab pools, inline routes and typed timer events hold the full
// memcached UDP path at ~1.6 allocations per simulated packet (the residue
// is the application's request/response message boxing), against a hard
// ceiling of 2.
type modelBench struct {
	MemcachedRequests int        `json:"memcached_requests_per_client"`
	IncastSenders     int        `json:"incast_senders"`
	Memcached         modelRun   `json:"memcached"`
	Incast            modelRun   `json:"incast"`
	WorkerSweep       []modelRun `json:"worker_sweep,omitempty"`
}

// modelRun is one measured workload execution.
type modelRun struct {
	Workload        string  `json:"workload"`
	Workers         int     `json:"workers"` // engine workers (0 = adaptive)
	Packets         uint64  `json:"packets"`
	Events          uint64  `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	PacketsPerSec   float64 `json:"packets_per_sec"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	GCCycles        uint32  `json:"gc_cycles"`
	GCPauseNs       uint64  `json:"gc_pause_ns"`
	LeakedPackets   int64   `json:"leaked_packets"`
}

func toModelRun(st core.ModelBenchStats) modelRun {
	return modelRun{
		Workload:        st.Workload,
		Workers:         st.Workers,
		Packets:         st.Packets,
		Events:          st.Events,
		WallSeconds:     st.WallSeconds,
		PacketsPerSec:   st.PacketsPerSec,
		AllocsPerPacket: st.AllocsPerPacket,
		GCCycles:        st.GCCycles,
		GCPauseNs:       st.GCPauseNs,
		LeakedPackets:   st.LeakedPackets,
	}
}

type engineComparison struct {
	Partitions         int     `json:"partitions"`
	EventsPerPartition int     `json:"events_per_partition"`
	SeqEventsPerSec    float64 `json:"seq_events_per_sec"`
	ParEventsPerSec    float64 `json:"par_events_per_sec"`
	SpeedupX           float64 `json:"speedup_x"`
	SeqAllocsPerEvent  float64 `json:"seq_allocs_per_event"`
	ParAllocsPerEvent  float64 `json:"par_allocs_per_event"`

	// The same chain scheduled as typed event records on the sequential
	// engine. Zero in baselines that predate them, which the gates treat as
	// "not measured".
	TypedEventsPerSec   float64 `json:"typed_events_per_sec,omitempty"`
	TypedAllocsPerEvent float64 `json:"typed_allocs_per_event,omitempty"`
}

// benchCompare is the before/after artifact written next to the report when
// a baseline is supplied: the committed reference, the fresh measurement,
// and the ratios the gates judged. CI uploads it so a regression (or a win)
// is inspectable without rerunning the probe.
type benchCompare struct {
	Schema        string           `json:"schema"`
	BaselinePath  string           `json:"baseline_path"`
	Baseline      engineComparison `json:"baseline"`
	Current       engineComparison `json:"current"`
	SeqThroughput float64          `json:"seq_throughput_ratio"` // current/baseline
	SeqAllocDelta float64          `json:"seq_allocs_per_event_delta"`

	// Model-level before/after (zero-valued when either side lacks the
	// model block).
	BaselineModel      *modelBench `json:"baseline_model,omitempty"`
	CurrentModel       *modelBench `json:"current_model,omitempty"`
	ModelThroughput    float64     `json:"model_packets_per_sec_ratio,omitempty"`
	ModelAllocPktDelta float64     `json:"model_allocs_per_packet_delta,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output path for the JSON report")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional regression of seq throughput vs baseline")
	allocSlack := flag.Float64("alloc-slack", 0.05, "allowed absolute increase of seq allocs/event over baseline")
	compare := flag.String("compare", "BENCH_compare.json", "before/after comparison artifact (with -baseline; empty = skip)")
	partitions := flag.Int("partitions", 8, "partitions in the engine-comparison model")
	events := flag.Int("events", 100_000, "events per partition")
	warmup := flag.Bool("warmup", true, "run one unmeasured warm-up pass first")
	model := flag.Bool("model", true, "run the model-level benches (full memcached/incast runs)")
	modelRequests := flag.Int("model-requests", 0, "memcached requests per client in the model bench (0 = standard)")
	modelSenders := flag.Int("model-senders", 0, "incast sender count in the model bench (0 = standard)")
	workers := flag.String("workers", "1,2,4,8", "comma-separated worker counts for the memcached scaling sweep (empty = skip)")
	allocCeiling := flag.Float64("model-alloc-ceiling", 2.0, "hard ceiling on memcached allocs per simulated packet")
	modelAllocSlack := flag.Float64("model-alloc-slack", 0.25, "allowed absolute increase of model allocs/packet over baseline")
	flag.Parse()

	parallelMeaningful := runtime.NumCPU() > 1

	if *warmup {
		// One throwaway pass so the measured run sees warmed allocator
		// spans and a grown heap, mirroring what `go test -bench` does
		// across b.N iterations.
		core.EngineComparisonMeasured(*partitions, *events)
	}
	st := core.EngineComparisonMeasured(*partitions, *events)

	rep := benchReport{
		Schema:             "diablo-bench/v1",
		GoVersion:          runtime.Version(),
		NumCPU:             runtime.NumCPU(),
		ParallelMeaningful: parallelMeaningful,
		EngineComparison: engineComparison{
			Partitions:          *partitions,
			EventsPerPartition:  *events,
			SeqEventsPerSec:     st.SeqEventsPerSec,
			ParEventsPerSec:     st.ParEventsPerSec,
			SpeedupX:            st.Speedup(),
			SeqAllocsPerEvent:   st.SeqAllocsPerEvent,
			ParAllocsPerEvent:   st.ParAllocsPerEvent,
			TypedEventsPerSec:   st.TypedEventsPerSec,
			TypedAllocsPerEvent: st.TypedAllocsPerEvent,
		},
	}

	if *model {
		mc, err := core.ModelBenchMemcached(0, false, *modelRequests)
		if err != nil {
			fatalf("model bench memcached: %v", err)
		}
		ic, err := core.ModelBenchIncast(0, false, *modelSenders)
		if err != nil {
			fatalf("model bench incast: %v", err)
		}
		mb := &modelBench{
			MemcachedRequests: *modelRequests,
			IncastSenders:     *modelSenders,
			Memcached:         toModelRun(mc),
			Incast:            toModelRun(ic),
		}
		fmt.Printf("model memcached: %.0f pkts/s over %d packets, %.3f allocs/pkt, %d GC cycles (%.1f ms pause)\n",
			mc.PacketsPerSec, mc.Packets, mc.AllocsPerPacket, mc.GCCycles, float64(mc.GCPauseNs)/1e6)
		fmt.Printf("model incast:    %.0f pkts/s over %d packets, %.3f allocs/pkt, %d GC cycles (%.1f ms pause)\n",
			ic.PacketsPerSec, ic.Packets, ic.AllocsPerPacket, ic.GCCycles, float64(ic.GCPauseNs)/1e6)
		if *workers != "" {
			counts, err := parseWorkers(*workers)
			if err != nil {
				fatalf("-workers: %v", err)
			}
			for _, w := range counts {
				sw, err := core.ModelBenchMemcached(w, false, *modelRequests)
				if err != nil {
					fatalf("model bench memcached (workers=%d): %v", w, err)
				}
				mb.WorkerSweep = append(mb.WorkerSweep, toModelRun(sw))
				fmt.Printf("model memcached workers=%d: %.0f pkts/s, %.3f allocs/pkt\n",
					w, sw.PacketsPerSec, sw.AllocsPerPacket)
			}
			if !parallelMeaningful {
				fmt.Println("note: num_cpu == 1 — the worker sweep measures scheduling overhead, not scaling (parallel_meaningful: false)")
			}
		}
		rep.Model = mb

		// Hard gates, baseline or not: the lifecycle ledger must balance and
		// the per-packet allocation budget holds on the full memcached run.
		for _, r := range []modelRun{mb.Memcached, mb.Incast} {
			if r.LeakedPackets != 0 {
				fatalf("REGRESSION: %s model run leaked %d pooled packets (every Get must be released)", r.Workload, r.LeakedPackets)
			}
		}
		if mb.Memcached.AllocsPerPacket > *allocCeiling {
			fatalf("REGRESSION: memcached allocs per simulated packet %.3f exceeds ceiling %.2f",
				mb.Memcached.AllocsPerPacket, *allocCeiling)
		}
		fmt.Printf("gate: memcached %.3f allocs/pkt <= ceiling %.2f, 0 leaked — ok\n",
			mb.Memcached.AllocsPerPacket, *allocCeiling)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("engine comparison (%d partitions x %d events): seq %.2fM ev/s (%.2f allocs/ev), typed %.2fM ev/s (%.2f allocs/ev), par %.2fM ev/s (%.2f allocs/ev, %.2fx)\n",
		*partitions, *events, st.SeqEventsPerSec/1e6, st.SeqAllocsPerEvent,
		st.TypedEventsPerSec/1e6, st.TypedAllocsPerEvent,
		st.ParEventsPerSec/1e6, st.ParAllocsPerEvent, st.Speedup())
	fmt.Printf("wrote %s\n", *out)

	if *baseline == "" {
		return
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fatalf("load baseline: %v", err)
	}

	if *compare != "" {
		cmp := benchCompare{
			Schema:        "diablo-bench-compare/v1",
			BaselinePath:  *baseline,
			Baseline:      base.EngineComparison,
			Current:       rep.EngineComparison,
			SeqThroughput: st.SeqEventsPerSec / base.EngineComparison.SeqEventsPerSec,
			SeqAllocDelta: st.SeqAllocsPerEvent - base.EngineComparison.SeqAllocsPerEvent,
		}
		if base.Model != nil && rep.Model != nil {
			cmp.BaselineModel = base.Model
			cmp.CurrentModel = rep.Model
			if base.Model.Memcached.PacketsPerSec > 0 {
				cmp.ModelThroughput = rep.Model.Memcached.PacketsPerSec / base.Model.Memcached.PacketsPerSec
			}
			cmp.ModelAllocPktDelta = rep.Model.Memcached.AllocsPerPacket - base.Model.Memcached.AllocsPerPacket
		}
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fatalf("marshal comparison: %v", err)
		}
		if err := os.WriteFile(*compare, append(data, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *compare, err)
		}
		fmt.Printf("wrote %s\n", *compare)
	}

	floor := base.EngineComparison.SeqEventsPerSec * (1 - *tolerance)
	if st.SeqEventsPerSec < floor {
		fatalf("REGRESSION: seq throughput %.2fM ev/s is below %.0f%% of baseline %.2fM ev/s (floor %.2fM)",
			st.SeqEventsPerSec/1e6, (1-*tolerance)*100,
			base.EngineComparison.SeqEventsPerSec/1e6, floor/1e6)
	}
	fmt.Printf("gate: seq %.2fM ev/s >= floor %.2fM ev/s (baseline %.2fM, tolerance %.0f%%) — ok\n",
		st.SeqEventsPerSec/1e6, floor/1e6,
		base.EngineComparison.SeqEventsPerSec/1e6, *tolerance*100)

	// Allocation gate: allocs/event is noisy only through GC-triggered
	// incidentals, so an absolute slack (not a ratio — the reference value
	// is near zero) catches a closure creeping back onto a hot path.
	ceil := base.EngineComparison.SeqAllocsPerEvent + *allocSlack
	if st.SeqAllocsPerEvent > ceil {
		fatalf("REGRESSION: seq allocs/event %.4f exceeds baseline %.4f + slack %.2f",
			st.SeqAllocsPerEvent, base.EngineComparison.SeqAllocsPerEvent, *allocSlack)
	}
	fmt.Printf("gate: seq %.4f allocs/ev <= baseline %.4f + slack %.2f — ok\n",
		st.SeqAllocsPerEvent, base.EngineComparison.SeqAllocsPerEvent, *allocSlack)
	if base.EngineComparison.TypedAllocsPerEvent > 0 || base.EngineComparison.TypedEventsPerSec > 0 {
		tceil := base.EngineComparison.TypedAllocsPerEvent + *allocSlack
		if st.TypedAllocsPerEvent > tceil {
			fatalf("REGRESSION: typed allocs/event %.4f exceeds baseline %.4f + slack %.2f",
				st.TypedAllocsPerEvent, base.EngineComparison.TypedAllocsPerEvent, *allocSlack)
		}
		fmt.Printf("gate: typed %.4f allocs/ev <= baseline %.4f + slack %.2f — ok\n",
			st.TypedAllocsPerEvent, base.EngineComparison.TypedAllocsPerEvent, *allocSlack)
	}

	// Model-level gates, only when the baseline has the model block.
	if base.Model != nil && rep.Model != nil {
		bm, cm := base.Model.Memcached, rep.Model.Memcached
		if parallelMeaningful && bm.PacketsPerSec > 0 {
			mfloor := bm.PacketsPerSec * (1 - *tolerance)
			if cm.PacketsPerSec < mfloor {
				fatalf("REGRESSION: model memcached %.0f pkts/s is below %.0f%% of baseline %.0f pkts/s",
					cm.PacketsPerSec, (1-*tolerance)*100, bm.PacketsPerSec)
			}
			fmt.Printf("gate: model memcached %.0f pkts/s >= floor %.0f pkts/s — ok\n", cm.PacketsPerSec, mfloor)
		} else if !parallelMeaningful {
			// The model bench runs on the adaptively-selected engine; on a
			// single-CPU runner its throughput is not comparable to a
			// multi-core baseline, exactly like the engine speedup ratio.
			fmt.Println("gate: model throughput skipped (num_cpu == 1, parallel_meaningful: false)")
		}
		mceil := bm.AllocsPerPacket + *modelAllocSlack
		if bm.AllocsPerPacket > 0 && cm.AllocsPerPacket > mceil {
			fatalf("REGRESSION: model allocs/packet %.3f exceeds baseline %.3f + slack %.2f",
				cm.AllocsPerPacket, bm.AllocsPerPacket, *modelAllocSlack)
		}
		if bm.AllocsPerPacket > 0 {
			fmt.Printf("gate: model %.3f allocs/pkt <= baseline %.3f + slack %.2f — ok\n",
				cm.AllocsPerPacket, bm.AllocsPerPacket, *modelAllocSlack)
		}
	}
}

// parseWorkers parses the -workers sweep list ("1,2,4,8").
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func loadBaseline(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.EngineComparison.SeqEventsPerSec <= 0 {
		return rep, fmt.Errorf("%s: missing or non-positive engine_comparison.seq_events_per_sec", path)
	}
	return rep, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
