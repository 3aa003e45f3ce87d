// Command perfbench is the repository's performance benchmark. It runs one
// workload on one goroutine-at-a-time engine and prints, as its last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload mc-array --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload until --seconds have passed and
// reports end-to-end metrics as medians over the repetitions. With --trace 1
// it runs the workload untraced, traced (every typed-event handler wrapped
// with a counter and a timer) and on the partitioned engine, prints a
// per-layer table and reports per-layer metrics. Every execution's simulated
// outputs are checked; see README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Set-up is timed by set-up-only executions that halt at their first
// dispatch. One sample averages the set-ups of consecutive probes for
// setupBatch of host time, or of one probe if that takes longer (a
// single-rack set-up takes well under a millisecond, and whether a GC cycle
// lands inside it makes single ones bimodal).
// setupPerExecution samples are taken before each timed execution, so they
// spread over the run like the executions do; setup_s is their median.
const (
	setupBatch        = 50 * time.Millisecond
	setupPerExecution = 3
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mc-array, incast or campaign")
	seed := flag.Uint64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 10, "host seconds to repeat the workload for (--trace 0)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()

	var w *workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload mc-array|incast|campaign, --seed > 0, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}

	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedPass(w, *seed)
	} else {
		res, err = untracedPass(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// verdict accumulates output checks and expected-failure observations.
type verdict struct {
	problems []string
	// observed maps an expected failure to whether this process saw it
	// (absent: not checked in this pass).
	observed map[*expectedFailure]bool
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func (v *verdict) observe(x *expectedFailure, seen bool) {
	if v.observed == nil {
		v.observed = map[*expectedFailure]bool{}
	}
	v.observed[x] = v.observed[x] || seen
}

// compare checks that b reproduces a: the gated outputs must match exactly.
// Campaign tcp cells are covered by an expected failure: their differences
// are observed, not gated. outcomeOnly skips campaign cells' bookkeeping,
// which differs between engines by construction.
func (v *verdict) compare(what string, a, b *runResult, outcomeOnly bool) {
	if a.digest != b.digest {
		v.fail("%s: outputs differ: %q vs %q", what, a.digest, b.digest)
	}
	if a.manifestDigest != "" && b.manifestDigest != "" && a.manifestDigest != b.manifestDigest {
		v.fail("%s: udp cell manifest hashes differ", what)
	}
	if len(a.cellOuts) == 0 {
		return
	}
	if len(a.cellOuts) != len(b.cellOuts) {
		v.fail("%s: %d vs %d cells", what, len(a.cellOuts), len(b.cellOuts))
		return
	}
	tcpDiffers := false
	for i, ca := range a.cellOuts {
		cb := b.cellOuts[i]
		if ca.name == cb.name && ca.outcome == cb.outcome && (outcomeOnly || ca.bookkeeping == cb.bookkeeping) {
			continue
		}
		if ca.tcp {
			tcpDiffers = true
			continue
		}
		v.fail("%s: cell %s differs: %s %s vs %s %s", what, ca.name, ca.outcome, ca.bookkeeping, cb.outcome, cb.bookkeeping)
	}
	v.observe(&xfailTCPCells, tcpDiffers)
}

// report prints the checks and expected failures and folds them into res.
func (v *verdict) report(res *result) {
	for _, p := range v.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res.Correct = len(v.problems) == 0
	for _, x := range expectedFailures {
		status := "not checked in this pass"
		if seen, ok := v.observed[x]; ok && seen {
			status = "XFAIL (observed)"
		} else if ok {
			status = "XPASS (not observed in this run)"
		}
		fmt.Printf("expected failure %s: %s\n  reason: %s\n", x.name, status, x.reason)
	}
}

// expectedFailure is a known defect the benchmark reports by name without
// gating on it.
type expectedFailure struct{ name, reason string }

var (
	xfailTCPCells = expectedFailure{
		name: "campaign-tcp-cells-nondeterministic",
		reason: "campaign cells with the tcp mix differ from one execution to the next (so does cmd/memcache -proto tcp); " +
			"the likely cause is that the memcached client closes its TCP connections by ranging over a map " +
			"(internal/apps/memcache/client.go)",
	}
	xfailEngines = expectedFailure{
		name: "mc-array-engines-disagree",
		reason: "at 1984 nodes the sequential and partitioned engines give different results at some seeds " +
			"(seed 1: 9,622,003 vs 9,624,426 events, p50 142.6 vs 144.8 us; seed 5 too; seed 7 agrees); " +
			"at 496 nodes they agree",
	}
	expectedFailures = []*expectedFailure{&xfailTCPCells, &xfailEngines}
)

// setupSamples appends n set-up samples to samples.
func setupSamples(w *workload, seed uint64, n int, samples []float64) ([]float64, error) {
	for ; n > 0; n-- {
		runtime.GC()
		var sum time.Duration
		probes := 0
		for t0 := time.Now(); probes == 0 || time.Since(t0) < setupBatch; {
			r, err := w.replay(seed, runOpts{setupOnly: true})
			if err != nil {
				return nil, err
			}
			sum += r.setup
			probes++
		}
		samples = append(samples, sum.Seconds()/float64(probes))
	}
	return samples, nil
}

// untracedPass measures the end-to-end metrics. The workload repeats with
// one input until measure has passed, and every execution must reproduce the
// first one's outputs. Rates come from the fastest execution: on a shared
// 2-vCPU host, other tenants' load slowed single mc-array executions by up
// to 40% for tens of seconds at a time, and the fastest of several filters
// that out.
func untracedPass(w *workload, seed uint64, measure time.Duration) (*result, error) {
	var v verdict
	var setups []float64
	var runs []*runResult
	var err error
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < measure; i++ {
		if setups, err = setupSamples(w, seed, setupPerExecution, setups); err != nil {
			return nil, err
		}
		runtime.GC()
		r, err := w.run(seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  execution %d: set-up+run %.3f s, run phase %.3f s, simulated %.6f s, digest %s\n",
			i+1, total(r.cells).Seconds(), r.wall.Seconds(), r.simulated.Seconds(), r.summary())
		if i > 0 {
			v.compare(fmt.Sprintf("executions 1 and %d", i+1), runs[0], r, false)
		}
		runs = append(runs, r)
	}
	measured := time.Since(start)

	packets := runs[0].packets
	if w.name == "campaign" {
		// campaign.Run does not expose its clusters, so packets come from an
		// untimed replay of the same cells, which also cross-checks the
		// campaign.Run report cell by cell.
		runtime.GC()
		rep, err := w.replay(seed, runOpts{})
		if err != nil {
			return nil, err
		}
		v.compare("campaign.Run vs replay", runs[0], rep, false)
		v.problems = append(v.problems, rep.problems...)
		packets = rep.packets
	}

	res := &result{Metrics: map[string]metric{}}
	wall, cellTime := runs[0].wall, total(runs[0].cells)
	for _, r := range runs {
		v.problems = append(v.problems, r.problems...)
		res.Attempted += r.ops
		res.Failed += r.failed
		wall = min(wall, r.wall)
		cellTime = min(cellTime, total(r.cells))
	}
	res.Metrics["host_s_per_sim_s"] = metric{wall.Seconds() / runs[0].simulated.Seconds(), "s/s"}
	res.Metrics["sim_pkts_per_s"] = metric{float64(packets) / wall.Seconds(), "1/s"}
	res.Metrics["cells_per_min"] = metric{float64(len(runs[0].cells)) / cellTime.Minutes(), "1/min"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	fmt.Printf("%s seed %d: %d timed executions in %.1f s, digest %s\n",
		w.name, seed, len(runs), measured.Seconds(), runs[0].summary())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-18s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	v.report(res)
	return res, nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// peakRSSMB is the process's peak resident set in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
