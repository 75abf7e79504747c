package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/resultcache"
)

// fig8Options is `espsweep -figure 8 -quick` at one seed on the given
// number of matrix workers.
func fig8Options(seed uint64, workers int) experiment.Options {
	o := experiment.QuickOptions()
	o.Seeds = []uint64{seed}
	o.Parallelism = workers
	return o
}

// fig8Setup is everything fig8-quick does before its first timed
// repetition: the figure's first workload across all nine variants on
// the same workers, discarded. That fills the engine pool and grows the
// heap to its working size, which is what makes a process's first
// figure slower than the rest.
func fig8Setup(b *bench) error {
	o := fig8Options(b.seed, b.workers)
	m := experiment.NewMatrix([]string{"apache"}, append(experiment.CounterpartVariants(), experiment.CCFamily()...))
	m.Seeds, m.Warmup, m.Instructions, m.System, m.Parallelism = o.Seeds, o.Warmup, o.Instructions, o.System, o.Parallelism
	_, err := m.Run(nil)
	return err
}

// fig8WarmFigures is how many times a repetition regenerates the figure
// from the warm cache, for enough warm samples to place a tail.
const fig8WarmFigures = 2

// fig8Rep is one timed fig8-quick repetition: the figure computed cold
// and checked, then regenerated from a warm result cache and checked.
type fig8Rep struct {
	wallMS float64 // wall time of the cold figure
	cpuMS  float64 // host CPU time of the cold figure, all workers
	cold   *cellLog
	warmMS []float64
}

func fig8Once(b *bench, store *resultcache.Store) (fig8Rep, error) {
	e, err := loadExpected()
	if err != nil {
		return fig8Rep{}, err
	}
	want, ok := e.Fig8Quick[seedKey(b.seed)]
	if !ok {
		return fig8Rep{}, fmt.Errorf("expected.json has no fig8_quick entry for seed %d", b.seed)
	}
	rep := fig8Rep{cold: newCellLog()}
	o := fig8Options(b.seed, b.workers)
	o.RunFunc = rep.cold.runFunc(experiment.Run)
	start, cpu0 := time.Now(), cpuTime()
	tab, err := experiment.Figure8(o)
	rep.wallMS, rep.cpuMS = ms(time.Since(start)), ms(cpuTime()-cpu0)
	b.check(err == nil && sha([]byte(tab.String())) == want, "fig8-quick seed %d: table differs from expected.json (err %v)", b.seed, err)
	if err != nil {
		return rep, nil
	}

	for k, rc := range rep.cold.configs {
		key, err := rc.CanonicalKey()
		if err != nil {
			return rep, err
		}
		if err := store.Put(key, rc, rep.cold.results[k]); err != nil {
			return rep, err
		}
	}
	warm := newCellLog()
	o.RunFunc = warm.runFunc(store.Run)
	runtime.GC() // as in warmLookups
	for i := 0; i < fig8WarmFigures; i++ {
		tab, err = experiment.Figure8(o)
		b.check(err == nil && sha([]byte(tab.String())) == want, "fig8-quick seed %d: table from the warm cache differs (err %v)", b.seed, err)
	}
	rep.warmMS = warm.cpuMS
	return rep, nil
}

func fig8Run(b *bench) (map[string]float64, error) {
	setup, err := probeSetup(b, 3)
	if err != nil {
		return nil, err
	}
	if err := fig8Setup(b); err != nil {
		return nil, err
	}
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		return nil, err
	}
	var kips, coldMS, rss []float64
	var warmMS [][]float64
	err = untilDeadline(b, 3, func() error {
		var rep fig8Rep
		peak, err := peakRSS(func() (err error) { rep, err = fig8Once(b, store); return err })
		kips = append(kips, rep.cold.instructions()/rep.cpuMS)
		coldMS = append(coldMS, rep.cold.cpuMS...)
		warmMS = append(warmMS, rep.warmMS)
		rss = append(rss, peak)
		return err
	})
	if err != nil {
		return nil, err
	}
	return simMetrics(setup, kips, coldMS, rss, warmMS), nil
}

// instructions sums the simulated instructions of the logged cells.
func (l *cellLog) instructions() float64 {
	var n float64
	for _, rc := range l.configs {
		n += cellInstructions(rc)
	}
	return n
}

// fig8Traced alternates untraced figures with traced re-executions of
// the same cells on the same number of workers. Every traced cell must
// reproduce its untraced Cycles and Retired exactly.
func fig8Traced(b *bench) (map[string]float64, error) {
	if err := fig8Setup(b); err != nil {
		return nil, err
	}
	store, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		return nil, err
	}
	var (
		rt                   runtimeStats
		untracedMS, tracedMS []float64
		cellP50, cellMax     []float64
		idle, nextMS         []float64
		costs                []layerCost
		cells                int
	)
	err = untilDeadline(b, 2, func() error {
		var rep fig8Rep
		if err := rt.measure(func() (err error) { rep, err = fig8Once(b, store); return err }); err != nil {
			return err
		}
		untracedMS = append(untracedMS, rep.cpuMS)
		cells = len(rep.cold.wallMS)
		cellP50 = append(cellP50, median(rep.cold.wallMS))
		cellMax = append(cellMax, maxOf(rep.cold.wallMS))
		var busy float64
		for _, d := range rep.cold.wallMS {
			busy += d
		}
		idle = append(idle, 100*(1-busy/(float64(b.workers)*rep.wallMS)))

		cost, cpu, nextNS, err := traceCells(b, rep.cold)
		if err != nil {
			return err
		}
		tracedMS = append(tracedMS, cpu)
		costs = append(costs, cost)
		nextMS = append(nextMS, float64(nextNS))
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	i := medianIndex(tracedMS)
	costs[i].metrics(m, int64(nextMS[i]))
	m["trace.overhead_pct"] = 100 * (median(tracedMS)/median(untracedMS) - 1)
	m["experiment.cells"] = float64(cells)
	m["experiment.cell_p50_ms"] = median(cellP50)
	m["experiment.cell_max_ms"] = median(cellMax)
	m["experiment.pool_idle_pct"] = median(idle)
	rt.metrics(m)
	logLayers(m)
	return m, nil
}

// traceCells re-executes every logged cell under the traced driver on
// b.workers goroutines and checks each against its untraced result. It
// returns the summed layer costs and the traced cells' process CPU time;
// the counted Next calls are replayed afterwards, outside that time.
func traceCells(b *bench, cold *cellLog) (layerCost, float64, int64, error) {
	keys := make(chan string)
	var (
		mu     sync.Mutex
		total  layerCost
		counts = map[string][8]uint64{}
		first  error
		wg     sync.WaitGroup
	)
	cpu0 := cpuTime()
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				tc, err := runTraced(cold.configs[k])
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				if err == nil {
					want := cold.results[k]
					b.check(tc.Cycles == want.Cycles && tc.Retired == want.Retired,
						"traced %s: cycles/retired %d/%d, untraced %d/%d", k, tc.Cycles, tc.Retired, want.Cycles, want.Retired)
					total.add(tc.cost)
					counts[k] = tc.next
				}
				mu.Unlock()
			}
		}()
	}
	for k := range cold.configs {
		keys <- k
	}
	close(keys)
	wg.Wait()
	cpu := ms(cpuTime() - cpu0)
	if first != nil {
		return total, cpu, 0, first
	}
	var nextNS int64
	for k, next := range counts {
		ns, err := replayNext(cold.configs[k], next)
		if err != nil {
			return total, cpu, 0, err
		}
		nextNS += ns
	}
	return total, cpu, nextNS, nil
}
