package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
)

// simMetrics assembles the end-to-end metrics of an in-process
// simulation workload: medians over repetitions of instructions per host
// CPU millisecond (which is kinstr/s), cold latency and peak RSS; warmMS
// holds each repetition's warm latencies.
func simMetrics(setup float64, kips, coldMS, rss []float64, warmMS [][]float64) map[string]float64 {
	w := summarizeWarm(warmMS)
	m := map[string]float64{
		"setup_s":      setup,
		"sim_kips":     median(kips),
		"peak_rss_mb":  median(rss),
		"cold_p50_ms":  median(coldMS),
		"warm_p50_ms":  w.p50,
		"warm_tail_ms": w.tail,
	}
	logf("setup_s %.3f (median of probes); sim_kips %.1f (per CPU-second, median of %d reps); cold_p50_ms %.2f (n=%d); %s; peak_rss_mb %.1f (median of per-repetition peaks)",
		setup, m["sim_kips"], len(kips), m["cold_p50_ms"], len(coldMS), w, m["peak_rss_mb"])
	return m
}

// warmSummary is the warm latency of a run: the median over all
// requests, and the median over repetitions of each repetition's tail
// (a tail from one repetition is at the mercy of one noisy episode).
type warmSummary struct {
	p50, tail float64
	pct, n    int
}

func summarizeWarm(reps [][]float64) warmSummary {
	var all, tails []float64
	w := warmSummary{pct: 100}
	for _, r := range reps {
		all = append(all, r...)
		t, pct := tail(r)
		tails = append(tails, t)
		if pct < w.pct {
			w.pct = pct
		}
	}
	w.p50, w.tail, w.n = median(all), median(tails), len(all)
	return w
}

func (w warmSummary) String() string {
	return fmt.Sprintf("warm_p50_ms %.4f (n=%d), warm_tail_ms %.4f (median over repetitions of each one's p%d or higher)", w.p50, w.n, w.tail, w.pct)
}

// runtimeDelta measures the Go runtime's allocation and GC work across
// fn: allocated MB, completed GC cycles, and GC's share of CPU time.
func runtimeDelta(fn func() error) (allocMB, gcCycles, gcCPUPct float64, err error) {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	metrics.Read(samples)
	gc0, total0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	err = fn()
	metrics.Read(samples)
	runtime.ReadMemStats(&after)
	gc1, total1 := samples[0].Value.Float64(), samples[1].Value.Float64()
	allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	gcCycles = float64(after.NumGC - before.NumGC)
	if total1 > total0 {
		gcCPUPct = 100 * (gc1 - gc0) / (total1 - total0)
	}
	return allocMB, gcCycles, gcCPUPct, err
}

// runtimeStats collects runtimeDelta's results over repetitions.
type runtimeStats struct{ alloc, gcs, gcCPU []float64 }

func (r *runtimeStats) measure(fn func() error) error {
	a, g, c, err := runtimeDelta(fn)
	r.alloc, r.gcs, r.gcCPU = append(r.alloc, a), append(r.gcs, g), append(r.gcCPU, c)
	return err
}

func (r *runtimeStats) metrics(m map[string]float64) {
	m["runtime.alloc_mb"] = median(r.alloc)
	m["runtime.gc_cycles"] = median(r.gcs)
	m["runtime.gc_cpu_pct"] = median(r.gcCPU)
}

// zeroLayers returns a per-layer map with every metric at 0, for the
// workload to fill in the layers it reaches.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// medianIndex returns the index of a median element of xs.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort by value; xs is short
		for j := i; j > 0 && xs[idx[j]] < xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx[len(idx)/2]
}

// logLayers prints each layer's share of the traced time.
func logLayers(m map[string]float64) {
	total := m["trace.total_ms"]
	if total <= 0 {
		return
	}
	share := func(name string) float64 { return 100 * m[name] / total }
	fmt.Fprintf(os.Stdout, "# traced %.1f ms: sim.self %.1f%%, cpu.self %.1f%%, workload.next %.1f%%, arch offchip %.1f%%, onchip %.1f%%, writeback %.1f%%, build %.1f%%; overhead %.1f%%\n",
		total, share("sim.self_ms"), share("cpu.self_ms"), share("workload.next_ms"), share("arch.access_offchip_ms"),
		share("arch.access_onchip_ms"), share("arch.writeback_ms"), share("arch.build_ms"), m["trace.overhead_pct"])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile of xs that has at least ten
// samples above it (nearest rank), with that percentile.
func tail(xs []float64) (value float64, pct int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for p := 99; p > 50; p-- {
		k := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if k >= 0 && n-1-k >= 10 {
			return s[k], p
		}
	}
	return median(s), 50
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
