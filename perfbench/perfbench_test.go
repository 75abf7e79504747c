package main

import (
	"encoding/json"
	"os"
	"testing"

	"espnuca/internal/experiment"
)

// TestTracedDriverMatchesRun checks, for every architecture the paper
// evaluates, that the traced driver's hand-assembled run reproduces
// experiment.Run's Cycles and Retired exactly, on a streaming and a
// sharing-heavy workload at a tiny budget.
func TestTracedDriverMatchesRun(t *testing.T) {
	for _, a := range paperArchs {
		for _, wl := range []string{"FT", "apache"} {
			rc := experiment.DefaultRunConfig(a, wl)
			rc.Warmup, rc.Instructions, rc.Seed = 3000, 2000, 7
			want, err := experiment.Run(rc)
			if err != nil {
				t.Fatalf("%s/%s: %v", a, wl, err)
			}
			got, err := runTraced(rc)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", a, wl, err)
			}
			if got.Cycles != want.Cycles || got.Retired != want.Retired {
				t.Errorf("%s/%s: traced cycles/retired %d/%d, experiment.Run %d/%d",
					a, wl, got.Cycles, got.Retired, want.Cycles, want.Retired)
			}
			if got.cost.accessCalls == 0 || got.cost.events == 0 {
				t.Errorf("%s/%s: decorators saw %d accesses, probe %d events", a, wl, got.cost.accessCalls, got.cost.events)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the program
// reports identical, in name and unit, to the ones BENCHMARK.json
// declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest-rank p90 of 1..100 is 90, with exactly ten samples above.
	if v, p := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail(1..100) = %v at p%d, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:15]); p != 50 || v != 8 {
		t.Errorf("tail(1..15) = %v at p%d, want the median 8 at p50", v, p)
	}
}
