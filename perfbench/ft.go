package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
	"espnuca/internal/workload"
)

// ftConfig is the ft-full cell: esp-nuca on NAS FT at the harness's
// default budget (80k warm-up + 40k measured instructions per core),
// full detail on the serial engine.
func ftConfig(seed uint64) experiment.RunConfig {
	rc := experiment.DefaultRunConfig("esp-nuca", "FT")
	rc.Seed = seed
	return rc
}

// cellInstructions is the number of instructions a full-detail cell
// simulates on its measured cores, warm-up included: each retires
// exactly Warmup+Instructions.
func cellInstructions(rc experiment.RunConfig) float64 {
	spec, ok := workload.ByName(rc.Workload)
	if !ok {
		return 0
	}
	return float64(bits.OnesCount8(spec.ActiveCores())) * float64(rc.Warmup+rc.Instructions)
}

// ftSetup is everything ft-full does before its first timed repetition:
// one discarded run, which also lets the heap reach its working size.
func ftSetup(b *bench) error {
	_, err := experiment.Run(ftConfig(b.seed))
	return err
}

// warmLookups stores a computed cell in the in-memory result cache and
// times n repeat requests for it through Store.Run, the lookup every
// cached path (espsweep -cache-dir, espserved) takes. Each returned
// result must equal the stored one.
func warmLookups(b *bench, store *resultcache.Store, rc experiment.RunConfig, res experiment.RunResult, n int) ([]float64, error) {
	key, err := rc.CanonicalKey()
	if err != nil {
		return nil, err
	}
	if err := store.Put(key, rc, res); err != nil {
		return nil, err
	}
	want := resultBytes(res)
	// Finish the cold run's garbage collection first, so warm requests
	// measure the hit path rather than a collection still in flight.
	runtime.GC()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var got experiment.RunResult
		_, cpu := timeOnThread(func() { got, err = store.Run(rc) })
		out = append(out, ms(cpu))
		b.check(err == nil && bytes.Equal(resultBytes(got), want), "warm %s: cached result differs (err %v)", cellKey(rc), err)
	}
	return out, nil
}

// ftWarmLookups is how many warm requests follow each cold run: enough
// to place a tail percentile with ten samples beyond it.
const ftWarmLookups = 60

// ftRep is one timed ft-full repetition: a cold run checked against the
// committed result, then warm lookups of it.
type ftRep struct {
	coldMS float64 // wall time of the cold run
	cpuMS  float64 // host CPU time of the cold run
	warmMS []float64
	res    experiment.RunResult
}

func ftOnce(b *bench, store *resultcache.Store) (ftRep, error) {
	want, err := ftExpected(b)
	if err != nil {
		return ftRep{}, err
	}
	rc := ftConfig(b.seed)
	start, cpu0 := time.Now(), cpuTime()
	res, err := experiment.Run(rc)
	rep := ftRep{coldMS: ms(time.Since(start)), cpuMS: ms(cpuTime() - cpu0), res: res}
	b.check(err == nil && sha(resultBytes(res)) == want.SHA256, "ft-full seed %d: result differs from expected.json (err %v)", b.seed, err)
	if err != nil {
		return rep, nil
	}
	rep.warmMS, err = warmLookups(b, store, rc, res, ftWarmLookups)
	return rep, err
}

func ftExpected(b *bench) (cellExpect, error) {
	e, err := loadExpected()
	if err != nil {
		return cellExpect{}, err
	}
	want, ok := e.FTFull[seedKey(b.seed)]
	if !ok {
		return cellExpect{}, fmt.Errorf("expected.json has no ft_full entry for seed %d", b.seed)
	}
	return want, nil
}

func ftRun(b *bench) (map[string]float64, error) {
	setup, err := probeSetup(b, 3)
	if err != nil {
		return nil, err
	}
	if err := ftSetup(b); err != nil {
		return nil, err
	}
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		return nil, err
	}
	instr := cellInstructions(ftConfig(b.seed))
	var kips, coldMS, rss []float64
	var warmMS [][]float64
	err = untilDeadline(b, 5, func() error {
		var rep ftRep
		peak, err := peakRSS(func() (err error) { rep, err = ftOnce(b, store); return err })
		kips = append(kips, instr/rep.cpuMS)
		coldMS = append(coldMS, rep.cpuMS)
		warmMS = append(warmMS, rep.warmMS)
		rss = append(rss, peak)
		return err
	})
	if err != nil {
		return nil, err
	}
	return simMetrics(setup, kips, coldMS, rss, warmMS), nil
}

// ftTraced alternates untraced and traced repetitions of the ft-full
// cell. The traced driver must reproduce the untraced and committed
// Cycles and Retired exactly.
func ftTraced(b *bench) (map[string]float64, error) {
	if err := ftSetup(b); err != nil {
		return nil, err
	}
	want, err := ftExpected(b)
	if err != nil {
		return nil, err
	}
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		return nil, err
	}
	rc := ftConfig(b.seed)
	var (
		rt         runtimeStats
		untracedMS []float64
		traced     []tracedCell
		tracedMS   []float64
		nextNS     []float64
	)
	err = untilDeadline(b, 3, func() error {
		var rep ftRep
		if err := rt.measure(func() (err error) { rep, err = ftOnce(b, store); return err }); err != nil {
			return err
		}
		untracedMS = append(untracedMS, rep.cpuMS)
		cpu0 := cpuTime()
		tc, err := runTraced(rc)
		if err != nil {
			return err
		}
		tracedMS = append(tracedMS, ms(cpuTime()-cpu0))
		b.check(uint64(tc.Cycles) == want.Cycles && tc.Retired == want.Retired &&
			tc.Cycles == rep.res.Cycles && tc.Retired == rep.res.Retired,
			"traced ft-full seed %d: cycles/retired %d/%d, untraced %d/%d, expected %d/%d",
			b.seed, tc.Cycles, tc.Retired, rep.res.Cycles, rep.res.Retired, want.Cycles, want.Retired)
		ns, err := replayNext(rc, tc.next)
		if err != nil {
			return err
		}
		traced = append(traced, tc)
		nextNS = append(nextNS, float64(ns))
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	i := medianIndex(tracedMS)
	traced[i].cost.metrics(m, int64(median(nextNS)))
	m["trace.overhead_pct"] = 100 * (median(tracedMS)/median(untracedMS) - 1)
	rt.metrics(m)
	logLayers(m)
	return m, nil
}
