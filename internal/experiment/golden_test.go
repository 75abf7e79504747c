package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/workload"
)

// The golden result corpus pins the bytes of every registry
// architecture's RunResult on one workload per Table 1 class, in full
// and in sampled mode. A refactor that claims to keep behaviour keeps
// this file unchanged; an intended behaviour change regenerates it with
//
//	go test ./internal/experiment -run TestGoldenResults -update
//
// and says why in CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const (
	goldenPath          = "testdata/golden.json"
	goldenSampleWindows = 4
)

// goldenWorkloads holds one workload per class: transactional, SPEC
// half-rate, hybrid and NAS.
var goldenWorkloads = []string{"apache", "gzip-4", "mcf-gzip", "FT"}

type goldenCell struct {
	arch, workload string
	windows        int
}

func (c goldenCell) name() string {
	mode := "full"
	if c.windows > 0 {
		mode = fmt.Sprintf("sampled-k%d", c.windows)
	}
	return c.arch + "/" + c.workload + "/" + mode
}

func (c goldenCell) config() RunConfig {
	rc := DefaultRunConfig(c.arch, c.workload)
	rc.Warmup = 20_000
	rc.Instructions = 16_000
	rc.SampleWindows = c.windows
	return rc
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, a := range arch.Names() {
		for _, w := range goldenWorkloads {
			for _, k := range []int{0, goldenSampleWindows} {
				cells = append(cells, goldenCell{a, w, k})
			}
		}
	}
	return cells
}

// runGoldenCell runs c, verifies the invariants (bank bookkeeping,
// residency, token conservation) of every system the run built, and
// returns the SHA-256 of the result's JSON encoding.
func runGoldenCell(c goldenCell) (string, error) {
	rc := c.config()
	rc.System.Seed = rc.Seed
	check := func(sys arch.System) error {
		if err := sys.Sub().CheckInvariants(); err != nil {
			return fmt.Errorf("%s: invariants: %w", c.name(), err)
		}
		return nil
	}
	var res RunResult
	if rc.SampleWindows == 0 {
		sys, err := arch.Build(rc.Arch, rc.System)
		if err != nil {
			return "", err
		}
		if res, err = RunOn(rc, sys); err != nil {
			return "", err
		}
		if err := check(sys); err != nil {
			return "", err
		}
	} else {
		// RunSampled at SampleParallelism 1, unrolled so each window's
		// system can be checked; TestSampledParallelDeterminism ties
		// this order to every other parallelism.
		spec, ok := workload.ByName(rc.Workload)
		if !ok {
			return "", fmt.Errorf("unknown workload %q", rc.Workload)
		}
		plans := samplePlans(rc.Warmup, rc.Instructions, rc.SampleWindows)
		bound := spec.Bind(rc.System.L2Lines(), rc.System.L1ILines(), rc.Seed)
		wins := make([]RunResult, len(plans))
		var pos [8]uint64
		for i, pl := range plans {
			sys, err := arch.Build(rc.Arch, rc.System)
			if err != nil {
				return "", err
			}
			if wins[i], err = runWindow(rc, sys, bound, pl, &pos); err != nil {
				return "", fmt.Errorf("%s: window %d: %w", c.name(), i, err)
			}
			if err := check(sys); err != nil {
				return "", err
			}
		}
		res = reduceSampled(rc, plans, wins)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestGoldenResults recomputes the corpus on all cores and names every
// cell whose result bytes changed.
func TestGoldenResults(t *testing.T) {
	t.Parallel()
	cells := goldenCells()
	hashes := make([]string, len(cells))
	if err := forEach(0, len(cells), func(i int) error {
		h, err := runGoldenCell(cells[i])
		hashes[i] = h
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(cells))
	for i, c := range cells {
		got[c.name()] = hashes[i]
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), goldenPath)
		return
	}

	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	var diverged []string
	for name, h := range got {
		if w, ok := want[name]; !ok {
			diverged = append(diverged, name+" (not in corpus)")
		} else if w != h {
			diverged = append(diverged, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			diverged = append(diverged, name+" (no longer computed)")
		}
	}
	if len(diverged) > 0 {
		sort.Strings(diverged)
		t.Fatalf("%d of %d golden cells diverged (regenerate with -update only for an intended behaviour change):\n  %s",
			len(diverged), len(want), strings.Join(diverged, "\n  "))
	}
}
