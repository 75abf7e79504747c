package cpu

import (
	"testing"

	"espnuca/internal/arch"
	"espnuca/internal/workload"
)

// TestFunctionalWarmPopulatesState drives the functional fast-forward and
// checks it does what sampled execution needs: cache state advances (the
// L1s see hits and misses, the L2 holds lines) while the substrate's
// invariants — bank counters, residency bookkeeping, token conservation —
// hold exactly as after detailed simulation.
func TestFunctionalWarmPopulatesState(t *testing.T) {
	for _, archName := range []string{"shared", "esp-nuca", "private"} {
		cfg := arch.ScaledConfig()
		cfg.CheckTokens = true
		sys, err := arch.Build(archName, cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, ok := workload.ByName("apache")
		if !ok {
			t.Fatal("no apache workload")
		}
		bound := spec.Bind(cfg.L2Lines(), cfg.L1ILines(), 1)

		sub := sys.Sub()
		sub.SetFunctional(true)
		FunctionalWarm(sys, bound.Streams[:cfg.Cores], 20_000)
		sub.SetFunctional(false)

		if err := sub.CheckInvariants(); err != nil {
			t.Fatalf("%s: substrate invariants broken after functional warm: %v", archName, err)
		}
		if sub.L1.DataHits == 0 || sub.L1.DataMisses == 0 {
			t.Errorf("%s: L1 saw no traffic (hits %d, misses %d)", archName, sub.L1.DataHits, sub.L1.DataMisses)
		}
		var l2Blocks int
		for _, b := range sub.Bank {
			for i := 0; i < b.Sets(); i++ {
				for _, blk := range b.Set(i).Blocks {
					if blk.Valid {
						l2Blocks++
					}
				}
			}
		}
		if l2Blocks == 0 {
			t.Errorf("%s: L2 empty after functional warm", archName)
		}
		// Functional mode must not advance simulated time: every timing
		// sink returns its input cycle, so no DRAM access is counted and
		// every decomposition sample lands with zero latency.
		if sub.DRAM.Reads != 0 || sub.DRAM.Writes != 0 {
			t.Errorf("%s: functional warm counted DRAM traffic (%d reads, %d writes)",
				archName, sub.DRAM.Reads, sub.DRAM.Writes)
		}
		for l := arch.Level(0); l < arch.NumLevels; l++ {
			if sub.Latency[l] != 0 {
				t.Errorf("%s: functional warm accumulated %d latency cycles at level %d",
					archName, sub.Latency[l], l)
			}
		}
	}
}
