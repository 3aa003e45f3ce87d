package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// useSmallScale shrinks every workload for the duration of a test.
func useSmallScale(t *testing.T) {
	t.Helper()
	saved := benchScale
	benchScale = scale{mcArrays: 1, mcRequests: 10, incastIterations: 5}
	t.Cleanup(func() { benchScale = saved })
}

// TestTracedRunMatchesUntraced pins that wrapping every typed-event handler
// with a counter and a timer cannot perturb simulated results: the traced
// execution's digest must equal the untraced one's.
func TestTracedRunMatchesUntraced(t *testing.T) {
	useSmallScale(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ref, err := w.run(7)
			if err != nil {
				t.Fatal(err)
			}
			lt := &layerTimer{}
			traced, err := w.replay(7, runOpts{layers: lt})
			if err != nil {
				t.Fatal(err)
			}
			var v verdict
			v.compare("untraced vs traced", ref, traced, false)
			v.problems = append(v.problems, ref.problems...)
			v.problems = append(v.problems, traced.problems...)
			for _, p := range v.problems {
				t.Error(p)
			}
			if lt.typed() == 0 || lt.typed() > traced.events {
				t.Errorf("traced %d typed dispatches of %d events", lt.typed(), traced.events)
			}
			if ref.ops == 0 || ref.failed != 0 {
				t.Errorf("ops %d failed %d", ref.ops, ref.failed)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON pins the output contract: the untraced pass
// reports exactly the end-to-end metrics BENCHMARK.json lists and the traced
// pass exactly the per-layer ones, with the listed units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	useSmallScale(t)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range spec.Workloads {
		if i >= len(names) || names[i] != w.Name {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", spec.Workloads, names)
		}
	}
	check := func(pass string, got map[string]metric, want []listed) {
		t.Helper()
		var missing, extra []string
		for _, l := range want {
			m, ok := got[l.Name]
			switch {
			case !ok:
				missing = append(missing, l.Name)
			case m.Unit != l.Unit:
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", pass, l.Name, m.Unit, l.Unit)
			}
			delete(got, l.Name)
		}
		for n := range got {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		if len(missing) > 0 || len(extra) > 0 {
			t.Errorf("%s: missing %v, not in BENCHMARK.json %v", pass, missing, extra)
		}
	}
	for _, w := range workloads {
		res, err := untracedPass(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s untraced: correct %v failed %d", w.name, res.Correct, res.Failed)
		}
		check(w.name+" untraced", res.Metrics, spec.EndToEnd)
		res, err = tracedPass(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct %v failed %d", w.name, res.Correct, res.Failed)
		}
		check(w.name+" traced", res.Metrics, spec.PerLayer)
	}
}
