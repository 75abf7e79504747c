package experiment

import (
	"reflect"
	"strings"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/workload"
)

// quickRC returns a fast run config for unit tests.
func quickRC(archName, wl string) RunConfig {
	rc := DefaultRunConfig(archName, wl)
	rc.Warmup = 20_000
	rc.Instructions = 10_000
	return rc
}

func TestRunProducesMetrics(t *testing.T) {
	res, err := Run(quickRC("esp-nuca", "apache"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Retired == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Throughput <= 0 || res.MeanIPC <= 0 {
		t.Fatalf("non-positive performance: %+v", res)
	}
	if res.AvgAccessTime <= 0 {
		t.Fatal("no access time recorded")
	}
	sum := 0.0
	for l := arch.Level(0); l < arch.NumLevels; l++ {
		sum += res.Decomposition[l]
	}
	if diff := sum - res.AvgAccessTime; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("decomposition sum %g != total %g", sum, res.AvgAccessTime)
	}
	if res.L1MissRate <= 0 || res.L1MissRate >= 1 {
		t.Fatalf("implausible L1 miss rate %g", res.L1MissRate)
	}
}

func TestRunUnknownInputs(t *testing.T) {
	rc := quickRC("esp-nuca", "nonexistent")
	if _, err := Run(rc); err == nil {
		t.Error("unknown workload accepted")
	}
	rc = quickRC("nonexistent", "apache")
	if _, err := Run(rc); err == nil {
		t.Error("unknown architecture accepted")
	}
	for _, k := range []int{0, 4} {
		rc = quickRC("esp-nuca", "apache")
		rc.EngineShards = 2
		rc.SampleWindows = k
		if _, err := Run(rc); err == nil || !strings.Contains(err.Error(), "sharded engine was removed") {
			t.Errorf("EngineShards with SampleWindows=%d: err = %v, want the removal named", k, err)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(quickRC("sp-nuca", "jbb"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickRC("sp-nuca", "jbb"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.OffChipAccesses != b.OffChipAccesses {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	rc := quickRC("sp-nuca", "jbb")
	rc.Seed = 2
	c, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles && c.OffChipAccesses == a.OffChipAccesses {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestRunOnSeedAlignment pins the Run/RunOn symmetry: a caller-built
// system must run the stochastic mechanisms (ASR's probabilistic
// allocation, CC's cooperation probability) on the run seed, not on
// whatever seed the config carried at build time. Regression test for
// RunOn results depending on build-time config state.
func TestRunOnSeedAlignment(t *testing.T) {
	for _, a := range []string{"asr", "cc"} {
		rc := quickRC(a, "apache")
		rc.Warmup, rc.Instructions = 6_000, 3_000
		rc.Seed = 5
		want, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rc.System
		cfg.Seed = 99 // stale seed a caller-built system might carry
		sys, err := arch.Build(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunOn(rc, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunOn with a stale build seed diverged from Run:\n got  %+v\n want %+v", a, got, want)
		}
	}
}

func TestRunNoProgressError(t *testing.T) {
	rc := quickRC("shared", "apache")
	rc.Warmup, rc.Instructions = 0, 0
	if _, err := Run(rc); err == nil || !strings.Contains(err.Error(), "made no progress") {
		t.Fatalf("err = %v, want a 'made no progress' failure for an empty budget", err)
	}
}

// TestRunMaxCyclesTruncates pins the documented MaxCycles contract:
// expiry is not an error — the run reports whatever the cores retired by
// the bound.
func TestRunMaxCyclesTruncates(t *testing.T) {
	rc := quickRC("shared", "apache")
	rc.Warmup = 0
	rc.Instructions = 1 << 30 // far beyond what the cycle bound allows
	rc.MaxCycles = 20_000
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("truncated run retired nothing")
	}
	if res.Retired >= 8*rc.Instructions {
		t.Fatalf("retired %d: the cycle bound did not truncate", res.Retired)
	}
	// Cores may overshoot the engine bound slightly (an in-flight slice
	// drains its outstanding misses), but not by a meaningful fraction.
	if res.Cycles > rc.MaxCycles+5_000 {
		t.Fatalf("measured %d cycles, far beyond the %d bound", res.Cycles, rc.MaxCycles)
	}
}

func TestRunHalfRateMeasuresActiveCoresOnly(t *testing.T) {
	res, err := Run(quickRC("shared", "gcc-4"))
	if err != nil {
		t.Fatal(err)
	}
	// 4 measured cores x 10k instructions.
	if res.Retired != 4*10_000 {
		t.Fatalf("retired = %d, want 40000", res.Retired)
	}
}

func TestPerformanceMetricByKind(t *testing.T) {
	r := RunResult{Throughput: 8, MeanIPC: 1}
	if r.Performance(workload.Transactional) != 8 {
		t.Error("transactional must use throughput")
	}
	if r.Performance(workload.HalfRate) != 1 || r.Performance(workload.Hybrid) != 1 {
		t.Error("multiprogrammed must use mean IPC")
	}
	if r.Performance(workload.NAS) != 8 {
		t.Error("NAS must use throughput")
	}
}

func TestMatrixRunAndNormalize(t *testing.T) {
	m := NewMatrix([]string{"gzip-4"}, []Variant{V("shared", "shared"), V("esp-nuca", "esp-nuca")})
	m.Seeds = []uint64{1, 2}
	m.Instructions = 8_000
	calls := 0
	res, err := m.Run(func(done, total int) {
		calls++
		if total != 4 {
			t.Fatalf("total = %d, want 4", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("progress calls = %d", calls)
	}
	n, ci, err := res.Normalized("esp-nuca", "shared", "gzip-4")
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("normalized = %g", n)
	}
	if ci < 0 {
		t.Fatalf("negative CI %g", ci)
	}
	if _, _, err := res.Normalized("esp-nuca", "shared", "bogus"); err == nil {
		t.Error("missing cell not reported")
	}
	g, err := res.GeoMeanNormalized("esp-nuca", "shared", []string{"gzip-4"})
	if err != nil || g != n {
		t.Fatalf("geomean over one workload = %g, want %g (%v)", g, n, err)
	}
	v, err := res.VarianceNormalized("esp-nuca", "shared", []string{"gzip-4"})
	if err != nil || v != 0 {
		t.Fatalf("variance over one workload = %g (%v)", v, err)
	}
}

func TestCCVariantLabels(t *testing.T) {
	fam := CCFamily()
	if len(fam) != 4 {
		t.Fatalf("CC family size %d", len(fam))
	}
	want := []string{"CC00", "CC30", "CC70", "CC100"}
	for i, v := range fam {
		if v.Label != want[i] {
			t.Fatalf("label %q, want %q", v.Label, want[i])
		}
		if v.Arch != "cc" {
			t.Fatalf("arch %q", v.Arch)
		}
	}
}

func TestCounterpartVariants(t *testing.T) {
	vs := CounterpartVariants()
	if len(vs) != 5 {
		t.Fatalf("counterparts = %d", len(vs))
	}
	for _, v := range vs {
		if _, err := arch.Build(v.Arch, arch.ScaledConfig()); err != nil {
			t.Errorf("variant %s unbuildable: %v", v.Label, err)
		}
	}
}

func TestTable1Catalog(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 22 {
		t.Fatalf("Table 1 has %d rows, want 22", len(tab.Rows))
	}
	if tab.String() == "" {
		t.Fatal("empty render")
	}
}

// TestPaperShapes verifies the qualitative results the reproduction must
// preserve (see DESIGN.md §4). It is the repository's headline regression
// test; run without -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	perf := func(archName, wl string) float64 {
		rc := DefaultRunConfig(archName, wl)
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := workload.ByName(wl)
		return res.Performance(spec.Kind)
	}

	// Transactional (Fig. 8): ESP-NUCA beats shared; private trails.
	sharedA := perf("shared", "apache")
	if esp := perf("esp-nuca", "apache"); esp < sharedA*1.02 {
		t.Errorf("apache: esp-nuca %.3f not above shared %.3f", esp, sharedA)
	}
	if priv := perf("private", "apache"); priv > sharedA {
		t.Errorf("apache: private %.3f above shared %.3f", priv, sharedA)
	}

	// Half-rate low-utility (Fig. 9): private far below shared on art.
	sharedArt := perf("shared", "art-4")
	if priv := perf("private", "art-4"); priv > sharedArt*0.8 {
		t.Errorf("art-4: private %.3f not well below shared %.3f", priv, sharedArt)
	}

	// Cache-friendly half-rate (Fig. 9): private above shared on gzip.
	sharedGz := perf("shared", "gzip-4")
	if priv := perf("private", "gzip-4"); priv < sharedGz {
		t.Errorf("gzip-4: private %.3f below shared %.3f", priv, sharedGz)
	}

	// NAS (Fig. 10): ESP-NUCA at least matches shared; private ahead of
	// shared.
	sharedLU := perf("shared", "LU")
	if esp := perf("esp-nuca", "LU"); esp < sharedLU {
		t.Errorf("LU: esp-nuca %.3f below shared %.3f", esp, sharedLU)
	}
	if priv := perf("private", "LU"); priv < sharedLU {
		t.Errorf("LU: private %.3f below shared %.3f", priv, sharedLU)
	}

	// Hybrid isolation (Fig. 9): shared is the worst alternative on
	// mcf-gzip.
	sharedMG := perf("shared", "mcf-gzip")
	for _, a := range []string{"private", "esp-nuca", "cc"} {
		if p := perf(a, "mcf-gzip"); p < sharedMG {
			t.Errorf("mcf-gzip: %s %.3f below shared %.3f", a, p, sharedMG)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{
		Columns: []string{"a", "b,c"},
		Rows:    []TableRow{{Label: "x,y", Values: []float64{1, 2.5}}},
	}
	csv := tab.CSV()
	want := "label,a,b;c\nx;y,1,2.5\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
