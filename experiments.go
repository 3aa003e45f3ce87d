package diablo

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"diablo/internal/core"
	"diablo/internal/fault"
	"diablo/internal/fpga"
	"diablo/internal/metrics"
	"diablo/internal/obs"
	"diablo/internal/survey"
)

// ExperimentOptions tune a registry run. Zero values select the reduced
// bench-scale defaults documented in DESIGN.md; the paper's full parameters
// are reachable by raising Requests/Iterations.
type ExperimentOptions struct {
	// Requests per memcached client (paper: 30,000).
	Requests int
	// Iterations per incast point (paper: 40).
	Iterations int
	// Senders for the incast sweeps (default 1..24).
	Senders []int
	// Seed is the master seed.
	Seed uint64
	// Partitions is the parallel worker count for multi-rack runs (0 or 1 =
	// single-threaded; any value yields identical results).
	Partitions int
	// Faults overrides the fault schedule of the graceful-degradation
	// experiments (faultmc, faultincast) with a spec in the fault.ParseSpec
	// grammar, e.g. "tordegrade rack=0 at=30ms dur=200ms loss=0.5". Empty
	// keeps each experiment's built-in schedule; other experiments ignore it.
	Faults string
	// TraceOut, if non-empty, writes a Chrome trace-event JSON file of the
	// experiment's observed run — load it in ui.perfetto.dev or
	// chrome://tracing. Supported by perf, faultmc and faultincast; other
	// experiments ignore it.
	TraceOut string
	// ManifestOut, if non-empty, writes a machine-readable run manifest
	// (schema diablo/run-manifest/v1: config, seed, stats series, engine
	// balance, degradation) for the same observed run as TraceOut.
	ManifestOut string
}

// observing reports whether any observation output was requested.
func (o ExperimentOptions) observing() bool {
	return o.TraceOut != "" || o.ManifestOut != ""
}

// writeObservation writes the requested trace/manifest files and returns a
// human-readable note describing what landed where.
func (o ExperimentOptions) writeObservation(obsn *core.Observation, m *obs.Manifest) (string, error) {
	var notes []string
	if o.TraceOut != "" && obsn.Trace != nil {
		f, err := os.Create(o.TraceOut)
		if err != nil {
			return "", err
		}
		err = obsn.Trace.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
		notes = append(notes, fmt.Sprintf("trace: %d events -> %s (open in ui.perfetto.dev)",
			obsn.Trace.Len(), o.TraceOut))
	}
	if o.ManifestOut != "" {
		f, err := os.Create(o.ManifestOut)
		if err != nil {
			return "", err
		}
		err = m.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
		notes = append(notes, fmt.Sprintf("manifest: %s -> %s", m.Schema, o.ManifestOut))
	}
	return strings.Join(notes, "; "), nil
}

// ExperimentOutput is the rendered result of one experiment.
type ExperimentOutput struct {
	Series []*metrics.Series
	Tables []*metrics.Table
	Notes  []string
}

// String renders everything.
func (o *ExperimentOutput) String() string {
	out := ""
	for _, t := range o.Tables {
		out += t.String() + "\n"
	}
	for _, s := range o.Series {
		out += s.String() + "\n"
	}
	for _, n := range o.Notes {
		out += "# " + n + "\n"
	}
	return out
}

// Experiment reproduces one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	Run   func(ExperimentOptions) (*ExperimentOutput, error)
}

// Experiments returns the registry, sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig2", "Figure 2: testbed sizes in SIGCOMM 2008-2013", runFig2},
		{"table1", "Table 1: workloads in surveyed papers", runTable1},
		{"table2", "Table 2: Rack FPGA resource utilization", runTable2},
		{"proto", "Section 3.4: prototype capacity and cost", runProto},
		{"fig6a", "Figure 6a: TCP Incast goodput, 1 Gbps shallow-buffer switch", runFig6a},
		{"fig6b", "Figure 6b: TCP Incast at 10 Gbps, pthread/epoll x 2/4 GHz", runFig6b},
		{"fig8", "Figure 8: single-rack memcached validation", runFig8},
		{"fig9", "Figure 9: 120-node latency CDF, memcached versions", runFig9},
		{"fig10", "Figure 10: latency PMF by hop count at 2,000 nodes", runFig10},
		{"fig11", "Figure 11: 95-100th pct latency CDF across scales", runFig11},
		{"fig12", "Figure 12: +0/+50/+100 ns switch latency sensitivity", runFig12},
		{"fig13", "Figure 13: TCP vs UDP across scales and fabrics", runFig13},
		{"fig14", "Figure 14: Linux 2.6.39.3 vs 3.5.7 at 2,000 nodes", runFig14},
		{"fig15", "Figure 15: memcached 1.4.15 vs 1.4.17 at scale", runFig15},
		{"perf", "Section 5: simulator performance and scaling", runPerf},
		{"faultmc", "Fault injection: memcached fan-out latency under a ToR uplink flap", runFaultMC},
		{"faultincast", "Fault injection: TCP incast with a lossy client downlink", runFaultIncast},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// RunExperiment runs a registry entry by ID.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentOutput, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(opts)
		}
	}
	return nil, fmt.Errorf("diablo: unknown experiment %q (try cmd/diablo list)", id)
}

func (o ExperimentOptions) incastSweep() core.IncastSweep {
	s := core.DefaultIncastSweep()
	if len(o.Senders) > 0 {
		s.Senders = o.Senders
	}
	if o.Iterations > 0 {
		s.Iterations = o.Iterations
	}
	if o.Seed != 0 {
		s.Seed = o.Seed
	}
	return s
}

func (o ExperimentOptions) mcSweep() core.MemcachedSweep {
	s := core.DefaultMemcachedSweep()
	if o.Requests > 0 {
		s.RequestsPerClient = o.Requests
	}
	if o.Seed != 0 {
		s.Seed = o.Seed
	}
	s.Partitions = o.Partitions
	return s
}

func runFig2(ExperimentOptions) (*ExperimentOutput, error) {
	return &ExperimentOutput{
		Series: []*metrics.Series{survey.Figure2()},
		Notes: []string{
			fmt.Sprintf("median servers = %d, median switches = %d", survey.MedianServers(), survey.MedianSwitches()),
		},
	}, nil
}

func runTable1(ExperimentOptions) (*ExperimentOutput, error) {
	return &ExperimentOutput{Tables: []*metrics.Table{survey.Table1()}}, nil
}

func runTable2(ExperimentOptions) (*ExperimentOutput, error) {
	out := &ExperimentOutput{Tables: []*metrics.Table{fpga.Table2()}}
	total := fpga.RackFPGATotal()
	u := total.Utilization(fpga.Virtex5LX155T)
	out.Notes = append(out.Notes,
		fmt.Sprintf("component sum vs LX155T capacity: %.0f%% of the binding resource (paper: ~95%% of slices incl. routing)", u*100))
	return out, nil
}

func runProto(ExperimentOptions) (*ExperimentOutput, error) {
	p := fpga.PaperPrototype()
	tb := &metrics.Table{
		Title:   "Section 3.4: the 3,000-node DIABLO prototype",
		Columns: []string{"quantity", "value", "paper"},
	}
	tb.AddRow("boards", fmt.Sprint(p.TotalBoards()), "9 BEE3")
	tb.AddRow("simulated servers", fmt.Sprint(p.SimulatedServers()), "2,976")
	tb.AddRow("simulated rack switches", fmt.Sprint(p.SimulatedRackSwitches()), "96")
	tb.AddRow("total DRAM", fmt.Sprintf("%d GB", p.TotalDRAMGB()), "576 GB")
	tb.AddRow("DRAM channels", fmt.Sprint(p.DRAMChannels()), "72")
	tb.AddRow("board cost", fmt.Sprintf("$%d", p.CostUSD()), "~$140K")
	c := fpga.PaperCostComparison()
	tb.AddRow("capex vs real array", fmt.Sprintf("%.0fx cheaper", c.CapexRatio()), "$150K vs $36M")
	scaled := fpga.ScaledSystem(fpga.BEE3(), 11_904)
	tb.AddRow("scaled 11,904-server system", fmt.Sprintf("%d boards", scaled.TotalBoards()), "9 + 13 more (paper text; packing math gives 36)")
	return &ExperimentOutput{Tables: []*metrics.Table{tb}}, nil
}

func runFig6a(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure6a(o.incastSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig6b(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure6b(o.incastSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig8(o ExperimentOptions) (*ExperimentOutput, error) {
	opts := core.DefaultFigure8()
	if o.Requests > 0 {
		opts.RequestsPerClient = o.Requests
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	opts.Partitions = o.Partitions
	th, lat, err := core.Figure8(opts)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: append(th, lat...)}, nil
}

func runFig9(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure9(o.mcSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig10(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure10(o.mcSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig11(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure11(o.mcSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig12(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure12(o.mcSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig13(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure13(o.mcSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig14(o ExperimentOptions) (*ExperimentOutput, error) {
	series, results, err := core.Figure14(o.mcSweep())
	if err != nil {
		return nil, err
	}
	out := &ExperimentOutput{Series: series}
	if len(results) == 2 {
		out.Notes = append(out.Notes, fmt.Sprintf(
			"mean latency: %v (2.6.39.3) vs %v (3.5.7); paper: 'almost halved'",
			results[0].Overall.Mean(), results[1].Overall.Mean()))
	}
	return out, nil
}

func runFig15(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure15(o.mcSweep())
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFaultMC(o ExperimentOptions) (*ExperimentOutput, error) {
	cfg := core.DefaultToRFlap()
	if o.Requests > 0 {
		cfg.Memcached.RequestsPerClient = o.Requests
	}
	if o.Seed != 0 {
		cfg.Memcached.Seed = o.Seed
	}
	cfg.Memcached.Partitions = o.Partitions

	// With observation requested, attach to every cluster the experiment
	// builds and keep the last — the faulted run.
	var obsn *core.Observation
	if o.observing() {
		cfg.Memcached.OnCluster = func(c *core.Cluster) {
			obsn = core.Observe(c, core.DefaultObserve())
		}
	}

	var r *core.FaultedMemcachedResult
	var err error
	if o.Faults != "" {
		plan, perr := fault.ParseSpec(cfg.Memcached.Seed, o.Faults)
		if perr != nil {
			return nil, perr
		}
		r, err = core.RunMemcachedFaulted(cfg.Memcached, plan)
	} else {
		r, err = core.RunMemcachedToRFlap(cfg)
	}
	if err != nil {
		return nil, err
	}
	out := &ExperimentOutput{Tables: []*metrics.Table{r.Degradation.Table()}}
	out.Notes = append(out.Notes,
		fmt.Sprintf("schedule:\n%s", r.Plan),
		fmt.Sprintf("fault edges fired: %d; p99.9 inflation %.2fx; lost %d of %d requests (%.3g%%)",
			len(r.Faulted.FaultEdges), r.Degradation.Inflation(0.999),
			r.Faulted.Lost(), r.Faulted.Attempted,
			100*metrics.LossRate(r.Faulted.Lost(), r.Faulted.Attempted)))
	if obsn != nil {
		obsn.Finish()
		m := obsn.BuildManifest("faultmc", cfg.Memcached.Seed, map[string]any{
			"requests_per_client": cfg.Memcached.RequestsPerClient,
			"faults":              r.Plan.String(),
		})
		m.Degradation = core.ManifestDegradation(r.Degradation, r.Faulted.Attempted)
		note, werr := o.writeObservation(obsn, m)
		if werr != nil {
			return nil, werr
		}
		out.Notes = append(out.Notes, "observed faulted run: "+note)
	}
	return out, nil
}

func runFaultIncast(o ExperimentOptions) (*ExperimentOutput, error) {
	cfg := core.DefaultLossyUplink()
	if o.Iterations > 0 {
		cfg.Incast.Iterations = o.Iterations
	}
	if o.Seed != 0 {
		cfg.Incast.Seed = o.Seed
	}

	var obsn *core.Observation
	if o.observing() {
		cfg.Incast.OnCluster = func(c *core.Cluster) {
			obsn = core.Observe(c, core.DefaultObserve())
		}
	}

	var r *core.FaultedIncastResult
	var err error
	if o.Faults != "" {
		plan, perr := fault.ParseSpec(cfg.Incast.Seed, o.Faults)
		if perr != nil {
			return nil, perr
		}
		r, err = core.RunIncastFaulted(cfg.Incast, plan)
	} else {
		r, err = core.RunIncastLossyUplink(cfg)
	}
	if err != nil {
		return nil, err
	}
	out := &ExperimentOutput{Tables: []*metrics.Table{r.Degradation.Table()}}
	out.Notes = append(out.Notes,
		fmt.Sprintf("schedule:\n%s", r.Plan),
		fmt.Sprintf("goodput %.1f -> %.1f Mbps (%.2fx); retransmits %d -> %d; timeouts %d -> %d",
			r.Baseline.GoodputBps/1e6, r.Faulted.GoodputBps/1e6, r.GoodputRatio(),
			r.Baseline.Retransmits, r.Faulted.Retransmits,
			r.Baseline.Timeouts, r.Faulted.Timeouts))
	if obsn != nil {
		obsn.Finish()
		m := obsn.BuildManifest("faultincast", cfg.Incast.Seed, map[string]any{
			"senders":    cfg.Incast.Senders,
			"iterations": cfg.Incast.Iterations,
			"faults":     r.Plan.String(),
		})
		// Incast degrades goodput, not a request count; loss rate is not a
		// per-request notion here, so attempted stays 0.
		m.Degradation = core.ManifestDegradation(r.Degradation, 0)
		note, werr := o.writeObservation(obsn, m)
		if werr != nil {
			return nil, werr
		}
		out.Notes = append(out.Notes, "observed faulted run: "+note)
	}
	return out, nil
}

func runPerf(o ExperimentOptions) (*ExperimentOutput, error) {
	requests := o.Requests
	if requests == 0 {
		requests = 60
	}
	points, err := core.Section5Performance(nil, requests)
	if err != nil {
		return nil, err
	}
	out := &ExperimentOutput{Tables: []*metrics.Table{core.PerfTable(points)}}
	st := core.EngineComparisonMeasured(8, 100_000)
	out.Notes = append(out.Notes, fmt.Sprintf(
		"engine comparison (8 partitions): sequential %.2fM ev/s, quantum-barrier parallel %.2fM ev/s (%.1fx)",
		st.SeqEventsPerSec/1e6, st.ParEventsPerSec/1e6, st.Speedup()))
	out.Notes = append(out.Notes, fmt.Sprintf(
		"typed events: %.2fM ev/s at %.3f allocs/ev",
		st.TypedEventsPerSec/1e6, st.TypedAllocsPerEvent))
	if o.observing() {
		cfg := core.DefaultMemcached()
		cfg.Arrays = 1
		cfg.RequestsPerClient = requests
		cfg.Partitions = o.Partitions
		if cfg.Partitions <= 1 {
			cfg.Partitions = 2
		}
		if o.Seed != 0 {
			cfg.Seed = o.Seed
		}
		_, obsn, err := core.RunMemcachedObserved(cfg, core.DefaultObserve())
		if err != nil {
			return nil, err
		}
		m := obsn.BuildManifest("perf/memcached-1array", cfg.Seed, map[string]any{
			"arrays":              cfg.Arrays,
			"requests_per_client": cfg.RequestsPerClient,
			"partitions":          cfg.Partitions,
		})
		note, werr := o.writeObservation(obsn, m)
		if werr != nil {
			return nil, werr
		}
		out.Notes = append(out.Notes, "observed §5 memcached run: "+note)
	}
	return out, nil
}
