package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"diablo/internal/apps/memcache"
	"diablo/internal/campaign"
	"diablo/internal/core"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/obs"
	"diablo/internal/sim"
)

// scale sizes the workloads. benchScale is part of the benchmark's
// definition: changing it changes every number the benchmark reports. Only
// tests shrink it.
type scale struct {
	mcArrays         int // 496-node arrays in mc-array
	mcRequests       int // requests per client (0: core.DefaultMemcached's)
	incastIterations int // synchronized reads per incast run
}

var benchScale = scale{
	mcArrays:         4,   // 4 x 496 nodes = the paper's 1984-node array
	incastIterations: 150, // the default is 40; more iterations, more RTO episodes
}

// incastSenders is Figure 6a's largest fan-in on one ToR.
const incastSenders = 16

// runOpts selects how one execution of a workload is instrumented.
type runOpts struct {
	layers      *layerTimer // non-nil: wrap every cluster's handlers (traced)
	partitioned bool        // partitioned engine with one worker instead of sequential
	setupOnly   bool        // halt at the first dispatch of the first cluster
}

// modelCounts are simulated-model outcomes that must repeat exactly for a
// given seed: a change that moves them changed the model, not its speed.
type modelCounts struct {
	retransmits, timeouts, drops, retried, lost uint64
}

func (c *modelCounts) add(o modelCounts) {
	c.retransmits += o.retransmits
	c.timeouts += o.timeouts
	c.drops += o.drops
	c.retried += o.retried
	c.lost += o.lost
}

// runResult is one execution of a workload, seen from outside the program.
type runResult struct {
	setup     time.Duration // workload start to its first dispatch (0: not observed)
	wall      time.Duration // run phase: first dispatch to return (campaign: the whole Run or replay)
	newS      time.Duration // summed over clusters: build start to OnCluster
	installS  time.Duration // summed over clusters: OnCluster to first dispatch
	cells     []time.Duration
	reportS   time.Duration // last cluster's end (campaign: last cell) to return
	simulated sim.Duration
	packets   uint64
	events    uint64
	leaked    int64
	counts    modelCounts

	ops, failed uint64
	problems    []string // output checks that missed

	// digest must be identical across executions of one seed and code. On
	// campaign it is empty and the cells carry the outputs instead;
	// manifestDigest (campaign.Run only) chains the udp cells' manifest
	// hashes.
	digest, manifestDigest string
	cellOuts               []cellOut
	manifests              []*obs.Manifest
}

// cellOut is one campaign cell's simulated result, in fields both a
// campaign.Run report row and a replayed cell expose.
type cellOut struct {
	name string
	tcp  bool
	// outcome is what any engine must reproduce; bookkeeping (event count,
	// stats-registry hash) also counts the observation layer's sampling
	// events, which the partitioned engine schedules once per partition.
	outcome, bookkeeping string
}

// summary is the run's digest for printing: on campaign, one hash over the
// udp cells and one over the tcp cells.
func (r *runResult) summary() string {
	if len(r.cellOuts) == 0 {
		return r.digest
	}
	var udp, tcp strings.Builder
	for _, c := range r.cellOuts {
		b := &udp
		if c.tcp {
			b = &tcp
		}
		fmt.Fprintf(b, "%s %s %s\n", c.name, c.outcome, c.bookkeeping)
	}
	return fmt.Sprintf("cells=%d udp=%s tcp=%s", len(r.cellOuts), hashString(udp.String()), hashString(tcp.String()))
}

// addCell records one campaign cell's result.
func (r *runResult) addCell(name string, tcp bool, events uint64, elapsedPs int64, samples uint64, p50Us, p999Us float64, statsHash string) {
	r.cellOuts = append(r.cellOuts, cellOut{
		name:        name,
		tcp:         tcp,
		outcome:     fmt.Sprintf("elapsed_ps=%d samples=%d p50_us=%g p999_us=%g", elapsedPs, samples, p50Us, p999Us),
		bookkeeping: fmt.Sprintf("events=%d stats=%s", events, statsHash),
	})
}

func (r *runResult) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// workload is one named benchmark input. run is the end-to-end execution;
// replay executes the same clusters with the given instrumentation.
type workload struct {
	name   string
	run    func(seed uint64) (*runResult, error)
	replay func(seed uint64, o runOpts) (*runResult, error)
}

var workloads = []*workload{
	{name: "mc-array", run: func(seed uint64) (*runResult, error) { return runMCArray(seed, runOpts{}) }, replay: runMCArray},
	{name: "incast", run: func(seed uint64) (*runResult, error) { return runIncast(seed, runOpts{}) }, replay: runIncast},
	{name: "campaign", run: runCampaign, replay: replayCampaign},
}

func hashString(s string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// finishCluster fills the per-cluster host timings, simulated time covered
// and the packet ledger.
func finishCluster(r *runResult, p *clusterProbe, end time.Time, simulated sim.Duration) {
	r.newS += p.wired.Sub(p.start)
	r.installS += p.first.Sub(p.wired)
	r.cells = append(r.cells, end.Sub(p.start))
	r.simulated += simulated
	r.packets += p.packets()
	r.events += p.cluster.Events()
	r.leaked += p.leaked()
}

// runMCArray runs the paper's 1984-node UDP memcached array once.
func runMCArray(seed uint64, o runOpts) (*runResult, error) {
	cfg := core.DefaultMemcached()
	cfg.Arrays = benchScale.mcArrays
	if benchScale.mcRequests > 0 {
		cfg.RequestsPerClient = benchScale.mcRequests
	}
	cfg.Seed = seed
	if o.partitioned {
		cfg.Partitions = 1
	} else {
		cfg.Sequential = true
	}
	var p clusterProbe
	cfg.OnCluster = p.hook(o)
	p.start = time.Now()
	res, err := core.RunMemcached(cfg)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("mc-array: %w", err)
	}
	r := &runResult{}
	if o.layers != nil {
		o.layers.closeSpan()
		r.reportS = end.Sub(o.layers.last)
	}
	finishCluster(r, &p, end, res.Elapsed)
	r.setup, r.wall = p.setup(), end.Sub(p.first)
	if o.setupOnly {
		return r, nil
	}
	r.counts = modelCounts{drops: res.SwitchDrops, retried: res.Retried, lost: res.Lost()}
	r.counts.retransmits, r.counts.timeouts = p.tcpCounts()
	r.ops = res.Attempted
	p50, p999 := res.Overall.Percentile(0.50), res.Overall.Percentile(0.999)
	r.digest = fmt.Sprintf("events=%d elapsed_ps=%d samples=%d p50_ps=%d p999_ps=%d retried=%d drops=%d",
		r.events, res.Elapsed, res.Samples, p50, p999, res.Retried, res.SwitchDrops)
	want := uint64(res.Clients) * uint64(cfg.RequestsPerClient-cfg.Warmup)
	ok := r.check(res.ClientsDone == res.Clients, "mc-array: %d of %d clients done", res.ClientsDone, res.Clients)
	ok = r.check(res.Lost() == 0, "mc-array: %d requests lost", res.Lost()) && ok
	ok = r.check(res.Samples == want, "mc-array: %d samples, want clients x (requests - warmup) = %d", res.Samples, want) && ok
	ok = r.check(r.leaked == 0, "mc-array: %d packets live after ReleaseInFlight", r.leaked) && ok
	if ok {
		r.failed = res.Lost()
	} else {
		r.failed = res.Attempted
	}
	r.manifests = append(r.manifests, resultManifest("mc-array", seed, r, res.Overall))
	return r, nil
}

// runIncast runs the single-rack TCP incast once.
func runIncast(seed uint64, o runOpts) (*runResult, error) {
	cfg := core.DefaultIncast(incastSenders)
	cfg.Iterations = benchScale.incastIterations
	cfg.Seed = seed
	if o.partitioned {
		// A single rack has one partition: core runs it on the sequential
		// engine whatever the worker count, so this measures the same engine.
		cfg.Partitions = 1
	}
	var p clusterProbe
	cfg.OnCluster = p.hook(o)
	p.start = time.Now()
	res, err := core.RunIncast(cfg)
	end := time.Now()
	if err != nil && !(o.setupOnly && p.cluster != nil) {
		return nil, fmt.Errorf("incast: %w", err)
	}
	r := &runResult{}
	if o.layers != nil {
		o.layers.closeSpan()
		r.reportS = end.Sub(o.layers.last)
	}
	finishCluster(r, &p, end, sim.Duration(p.cluster.Now()))
	r.setup, r.wall = p.setup(), end.Sub(p.first)
	if o.setupOnly {
		return r, nil
	}
	r.counts = modelCounts{retransmits: res.Retransmits, timeouts: res.Timeouts, drops: p.cluster.SwitchDrops()}
	r.ops = uint64(cfg.Iterations)
	iters := fnv.New64a()
	hist := metrics.NewHistogram()
	for _, d := range res.IterTimes {
		fmt.Fprintf(iters, "%d,", d)
		hist.Record(d)
	}
	r.digest = fmt.Sprintf("events=%d elapsed_ps=%d bytes=%d retransmits=%d timeouts=%d fast=%d drops=%d iters=%016x",
		r.events, res.Elapsed, res.Bytes, res.Retransmits, res.Timeouts, res.FastRetransmits, r.counts.drops, iters.Sum64())
	// An iteration ends only once the client has read the full block from
	// every sender, so completed iterations are the byte check. (TCP's
	// BytesIn counter is no substitute: it misses data absorbed from the
	// out-of-order queue.)
	want := uint64(cfg.Senders) * uint64(cfg.BlockBytes) * r.ops
	done := uint64(len(res.IterTimes))
	ok := r.check(done == r.ops, "incast: %d of %d iterations completed", done, r.ops)
	ok = r.check(res.Bytes == want, "incast: client read %d bytes, want %d", res.Bytes, want) && ok
	ok = r.check(r.leaked == 0, "incast: %d packets live after ReleaseInFlight", r.leaked) && ok
	if ok {
		r.failed = r.ops - done
	} else {
		r.failed = r.ops
	}
	r.manifests = append(r.manifests, resultManifest("incast", seed, r, hist))
	return r, nil
}

// resultManifest records a memcached-array or incast run in the repository's
// run-manifest schema, so the traced pass can price obs encode and hashing on
// every workload; those two workloads do not build manifests themselves.
func resultManifest(name string, seed uint64, r *runResult, h *metrics.Histogram) *obs.Manifest {
	us := func(d sim.Duration) float64 { return d.Microseconds() }
	return &obs.Manifest{
		Schema:     obs.ManifestSchema,
		Experiment: "perfbench/" + name,
		Seed:       seed,
		Workers:    1,
		Partitions: 1,
		ElapsedPs:  int64(r.simulated),
		Events:     r.events,
		StatsHash:  hashString(r.digest),
		Histograms: []obs.HistogramJSON{{
			Name: "latency", Count: h.Count(), MeanUs: us(h.Mean()),
			P50Us: us(h.Percentile(0.50)), P99Us: us(h.Percentile(0.99)),
			P999Us: us(h.Percentile(0.999)), MaxUs: us(h.Max()),
		}},
	}
}

// campaignSpec is the nightly preset's axes without fault draws (the preset
// has 19). Under a fault draw a tcp cell stalls in RTO backoff for 0.1-1.2
// host seconds depending on the draw, which spread cells_per_min by 31%
// between seeds at one draw per combination.
func campaignSpec(seed uint64) (*campaign.Spec, []campaign.Cell, error) {
	spec, err := campaign.Preset("nightly")
	if err != nil {
		return nil, nil, err
	}
	spec.MasterSeed = seed
	spec.Faults.Draws = 0
	cells, err := spec.Cells()
	if err != nil {
		return nil, nil, err
	}
	return spec, cells, nil
}

// runCampaign runs the campaign once through campaign.Run on one worker.
func runCampaign(seed uint64) (*runResult, error) {
	spec, cells, err := campaignSpec(seed)
	if err != nil {
		return nil, err
	}
	var last time.Time
	r := &runResult{}
	start := time.Now()
	prev := start
	rep, err := campaign.Run(spec, campaign.RunConfig{Workers: 1, OnCell: func(_, _ int, _ campaign.Cell, _ error) {
		last = time.Now()
		r.cells = append(r.cells, last.Sub(prev))
		prev = last
	}})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	r.wall = end.Sub(start)
	r.reportS = end.Sub(last)
	r.ops = uint64(len(cells))
	r.check(len(rep.Cells) == len(cells), "campaign: %d of %d cells ran", len(rep.Cells), len(cells))
	var manifests string
	for i, row := range rep.Cells {
		r.simulated += sim.Duration(row.ElapsedPs)
		r.events += row.Events
		r.counts.add(modelCounts{drops: row.SwitchDrops, retried: row.Retried, lost: row.Lost})
		isTCP := cells[i].Workload.Proto == "tcp"
		r.addCell(row.Name, isTCP, row.Events, row.ElapsedPs, row.Samples, row.P50Us, row.P999Us, row.StatsHash)
		if !isTCP {
			manifests += row.Name + " " + row.ManifestHash + "\n"
		}
		if !r.check(row.Draw != 0 || row.Lost == 0, "campaign: unfaulted cell %s lost %d requests", row.Name, row.Lost) {
			r.failed++
		}
	}
	r.failed += r.ops - uint64(len(rep.Cells))
	r.manifestDigest = hashString(manifests)
	return r, nil
}

// cellConfig rebuilds the memcached configuration campaign.RunCell uses for
// a cell, so a replay can attach OnCluster instrumentation that campaign.Run
// does not expose. Replayed results are compared cell by cell with the
// campaign.Run report rows; a drift here shows up as a mismatch.
func cellConfig(spec *campaign.Spec, cell campaign.Cell) (core.MemcachedConfig, error) {
	prof, err := kernel.ProfileByName(cell.Profile)
	if err != nil {
		return core.MemcachedConfig{}, err
	}
	mc := core.DefaultMemcached()
	mc.Topology = cell.Shape
	mc.Arrays = cell.Shape.Arrays
	mc.ServersPerRack = cell.Topology.ServersPerRack()
	mc.Profile = prof
	mc.Proto = memcache.UDP
	if cell.Workload.Proto == "tcp" {
		mc.Proto = memcache.TCP
	}
	mc.RequestsPerClient = cell.Workload.Requests
	mc.MaxClients = cell.Workload.MaxClients
	mc.Warmup = cell.Workload.Warmup
	mc.Use10G = cell.Workload.Use10G
	mc.Seed = cell.Seed
	mc.Sequential = true
	mc.Faults, err = campaign.CellPlan(spec, cell)
	return mc, err
}

// replayCampaign runs every cell of the campaign itself, on one goroutine,
// with the observability layer attached the way campaign.RunCell attaches it.
func replayCampaign(seed uint64, o runOpts) (*runResult, error) {
	start := time.Now()
	spec, cells, err := campaignSpec(seed)
	if err != nil {
		return nil, err
	}
	r := &runResult{}
	for i, cell := range cells {
		mc, err := cellConfig(spec, cell)
		if err != nil {
			return nil, err
		}
		if o.partitioned {
			mc.Sequential = false
			mc.Partitions = 1
		}
		var p clusterProbe
		mc.OnCluster = p.hook(o)
		p.start = time.Now()
		if i == 0 {
			p.start = start
		}
		res, ob, err := core.RunMemcachedObserved(mc, core.ObserveConfig{TraceEvents: -1})
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", cell.Name, err)
		}
		if o.layers != nil {
			o.layers.closeSpan()
		}
		finishCluster(r, &p, end, res.Elapsed)
		r.wall = end.Sub(start)
		if i == 0 {
			r.setup = p.setup()
		}
		if o.setupOnly {
			return r, nil
		}
		m := ob.BuildManifest("campaign/"+spec.Name+"/"+cell.Name, cell.Seed, nil)
		r.manifests = append(r.manifests, m)
		r.counts.add(modelCounts{drops: res.SwitchDrops, retried: res.Retried, lost: res.Lost()})
		rt, to := p.tcpCounts()
		r.counts.add(modelCounts{retransmits: rt, timeouts: to})
		r.addCell(cell.Name, cell.Workload.Proto == "tcp", m.Events, int64(res.Elapsed), res.Samples,
			res.Overall.Percentile(0.50).Microseconds(), res.Overall.Percentile(0.999).Microseconds(), m.StatsHash)
		r.ops++
		if !r.check(cell.Draw != 0 || res.Lost() == 0, "campaign: unfaulted cell %s lost %d requests", cell.Name, res.Lost()) {
			r.failed++
		}
	}
	if !r.check(r.leaked == 0, "campaign: %d packets live after ReleaseInFlight", r.leaked) {
		r.failed = r.ops
	}
	return r, nil
}
