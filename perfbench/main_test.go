package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// deterministicCounts brings every program of a seed's draw to a
// verdict through the traced pipeline once and returns the summed layer
// counts, with the fields that depend on timing or allocator state
// cleared.
func deterministicCounts(t *testing.T, w *workload, seed int64) layerCounts {
	t.Helper()
	var lc layerCounts
	tr := newTracer()
	for _, p := range drawPrograms(w, seed) {
		if err := checkExpected(p, tracedVerdict(context.Background(), p, tr, &lc)); err != nil {
			t.Fatalf("p%02d %s %s: %v", p.ID, p.Gen, p.Params, err)
		}
	}
	lc.CompileNanos, lc.DFAlloc, lc.ExploreAlloc = 0, 0, 0
	return lc
}

func drawKey(w *workload, seed int64) []string {
	var key []string
	for _, p := range drawPrograms(w, seed) {
		key = append(key, p.Gen+" "+p.Params)
	}
	return key
}

// TestDeterminism: two runs with the same seed yield identical
// deterministic counters (states, transitions, replay steps, def-use
// arcs, cache inserts, checkpoint bytes, ...), and another seed draws
// different programs.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := deterministicCounts(t, w, 1)
			b := deterministicCounts(t, w, 1)
			if a != b {
				t.Errorf("same seed, different counters:\n%+v\n%+v", a, b)
			}
			if a.DUArcs == 0 {
				t.Error("no def-use arcs counted")
			}
			if w.name != "close" && (a.States == 0 || a.ReplaySteps == 0) {
				t.Errorf("search counters missing: %+v", a)
			}
			if w.name == "liveness" && (a.CacheInserts == 0 || a.CheckpointBytes == 0) {
				t.Errorf("cache or checkpoint counters missing: %+v", a)
			}
			one, two := drawKey(w, 1), drawKey(w, 2)
			if len(one) != len(two) {
				t.Fatalf("draw sizes differ across seeds: %d vs %d", len(one), len(two))
			}
			same := true
			for i := range one {
				same = same && one[i] == two[i]
			}
			if same {
				t.Error("seeds 1 and 2 draw the same programs")
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkFile: the metrics a run reports are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bench.Workloads {
		if workloadByName(wl.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", wl.Name)
		}
	}

	e2e := &result{SetupRuns: []float64{1}, ProgramSeconds: [][]float64{{1}, {2}}, PassSeconds: []float64{1}, PassPeakRSS: []float64{1}}
	addEndToEnd(e2e, 1, 1)
	layered := &result{TracedRuns: 1, SelfSeconds: map[string]float64{spanVerdict: 1}}
	addLayerMetrics(layered, 0, 1)
	for _, c := range []struct {
		name string
		want []decl
		got  []metric
	}{{"end_to_end", bench.EndToEnd, e2e.Metrics}, {"per_layer", bench.PerLayer, layered.Metrics}} {
		var want, got []string
		for _, d := range c.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		for _, m := range c.got {
			got = append(got, m.Name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %v, run reports %v", c.name, want, got)
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: BENCHMARK.json declares %q, run reports %q", c.name, want[i], got[i])
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
