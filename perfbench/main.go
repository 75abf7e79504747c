// Command perfbench is the repository's benchmark: it drives the
// simulator and the espserved daemon through their public entry points,
// checks every output, and prints one JSON result line.
//
//	perfbench -workload ft-full -seed 3 -seconds 25 -trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	ft-full        esp-nuca on NAS FT, full detail, serial engine, one goroutine
//	fig8-quick     experiment.Figure8(QuickOptions()) on nproc matrix workers
//	serve-sampled  espserved on loopback: a sampled FT cell cold, then warm
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a traced run reports the per-layer metrics instead. The last line of
// standard output is the result; earlier lines record the host and a
// human-readable summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every reported metric with its unit; each
// run reports all of one list (BENCHMARK.json declares the same names,
// which TestMetricNamesMatchBenchmarkJSON checks). A layer a workload
// does not reach reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_kips", "kinstr/s"},
	{"peak_rss_mb", "MB"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"warm_tail_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.self_ms", "ms"},
	{"cpu.self_ms", "ms"},
	{"coherence.l1_hits", "count"},
	{"coherence.l1_misses", "count"},
	{"workload.next_calls", "count"},
	{"workload.next_ms", "ms"},
	{"arch.access_calls", "count"},
	{"arch.access_offchip_ms", "ms"},
	{"arch.access_onchip_ms", "ms"},
	{"arch.writeback_calls", "count"},
	{"arch.writeback_ms", "ms"},
	{"arch.build_ms", "ms"},
	{"arch.l2_hits", "count"},
	{"arch.remote_l1", "count"},
	{"arch.offchip", "count"},
	{"mem.dram_accesses", "count"},
	{"noc.link_wait_cycles", "cycles"},
	{"coherence.dir_lines", "count"},
	{"trace.total_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"experiment.cells", "count"},
	{"experiment.cell_p50_ms", "ms"},
	{"experiment.cell_max_ms", "ms"},
	{"experiment.pool_idle_pct", "%"},
	{"experiment.sampled_run_ms", "ms"},
	{"experiment.sample_err_pct", "%"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_pct", "%"},
}

type metricDef struct{ name, unit string }

// bench carries one invocation's inputs and its operation tally.
type bench struct {
	workload  string
	seed      uint64 // simulation seed derived from -seed
	seconds   float64
	workers   int    // nproc: matrix workers for fig8-quick
	daemon    string // espserved binary
	attempted int
	failed    int
}

// check tallies one checked operation; a false ok counts it as failed
// and says why on standard error.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// seedVariants is the number of distinct simulation seeds the benchmark
// derives from -seed; expected.json holds reference outputs for each.
const seedVariants = 4

// simSeed maps the driver's seed onto a simulation seed in
// [1, seedVariants].
func simSeed(seed uint64) uint64 { return 1 + seed%seedVariants }

func main() {
	var (
		wl       = flag.String("workload", "", "ft-full, fig8-quick or serve-sampled")
		seed     = flag.Uint64("seed", 0, "input seed (selects the simulation seed)")
		seconds  = flag.Float64("seconds", 25, "measurement time")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		daemon   = flag.String("daemon", "", "espserved binary (serve-sampled)")
		probe    = flag.Bool("setup-probe", false, "run only the workload's set-up, then exit")
		writeExp = flag.String("write-expected", "", "recompute reference outputs for every seed into this file, then exit")
	)
	flag.Parse()
	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fatal(err)
		}
		return
	}
	b := &bench{
		workload: *wl,
		seed:     simSeed(*seed),
		seconds:  *seconds,
		workers:  runtime.NumCPU(),
		daemon:   *daemon,
	}
	w, ok := workloads[*wl]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want ft-full, fig8-quick or serve-sampled)", *wl))
	}
	if *probe {
		if w.setup == nil {
			fatal(fmt.Errorf("workload %s has no set-up probe", *wl))
		}
		if err := w.setup(b); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	h := recordHostStart()
	var (
		metrics map[string]float64
		err     error
	)
	if *trace == 1 {
		metrics, err = w.traced(b)
	} else {
		metrics, err = w.run(b)
	}
	if err != nil {
		fatal(err)
	}
	h.finish()
	printJSONLine(map[string]any{"host": h})
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not produce metric %s", *wl, d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s is %v", d.name, v))
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if out.Attempted == 0 {
		fatal(fmt.Errorf("workload %s checked no operation", *wl))
	}
	printJSONLine(out)
}

// workloadDef is one benchmark workload: an untraced run for the end-to-end
// metrics, a traced run for the per-layer ones, and (for in-process
// workloads) the set-up a probe process repeats.
type workloadDef struct {
	setup  func(b *bench) error
	run    func(b *bench) (map[string]float64, error)
	traced func(b *bench) (map[string]float64, error)
}

var workloads = map[string]workloadDef{
	"ft-full":       {setup: ftSetup, run: ftRun, traced: ftTraced},
	"fig8-quick":    {setup: fig8Setup, run: fig8Run, traced: fig8Traced},
	"serve-sampled": {run: serveRun, traced: serveTraced},
}

// probeSetup measures set-up the way a user pays it: n fresh processes
// of this binary each start, perform the workload's set-up and exit.
// It returns the median of their host CPU times (user plus system, as
// the kernel reports it for the exited child) in seconds; CPU time
// rather than wall time, for the reason cpuTime gives.
func probeSetup(b *bench, n int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", b.workload,
			"-seed", fmt.Sprint(b.seed-1))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		secs = append(secs, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	return median(secs), nil
}

// untilDeadline calls rep until the measurement time is spent, at
// least minReps times.
func untilDeadline(b *bench, minReps int, rep func() error) error {
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// logf writes one human-readable summary line to standard output.
func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
