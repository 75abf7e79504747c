package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"espnuca/internal/experiment"
	"espnuca/internal/service"
)

// paperArchs are the seven architectures the paper evaluates.
var paperArchs = []string{"shared", "private", "sp-nuca", "esp-nuca", "d-nuca", "asr", "cc"}

// Sampled FT at the budget BENCH_6 validated: 80k warm-up and 640k
// measured instructions per core, eight measurement windows.
const (
	serveWarmup       = 80_000
	serveInstructions = 640_000
	serveWindows      = 8
	// serveBootProbes is how many daemons a run boots only to time
	// set-up, besides the one each repetition boots.
	serveBootProbes = 5
	// warmRequests is how many times the warm client resubmits the cell:
	// enough for a tail percentile of p87 per repetition.
	warmRequests = 80
)

// serveSpec is the job a client submits for one cell.
func serveSpec(arch string, seed uint64) service.RunSpec {
	return service.RunSpec{Arch: arch, Workload: "FT", Seed: seed,
		Warmup: serveWarmup, Instructions: serveInstructions, SampleWindows: serveWindows}
}

// serveConfig is the RunConfig the daemon lowers serveSpec to.
func serveConfig(arch string, seed uint64) (experiment.RunConfig, error) {
	return serveSpec(arch, seed).Config()
}

// daemon is one espserved process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
	done chan error
}

// addrWriter captures the daemon's "listening on" line from its stdout.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sent {
		w.buf.Write(p)
		if line, _, ok := strings.Cut(w.buf.String(), "\n"); ok {
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				w.addr <- strings.TrimSpace(addr)
				w.sent = true
			}
		}
	}
	return len(p), nil
}

// startDaemon boots a fresh daemon with an empty in-memory result cache
// and returns once /readyz answers 200, with the boot time.
func startDaemon(b *bench) (*daemon, float64, error) {
	if b.daemon == "" {
		return nil, 0, fmt.Errorf("serve-sampled needs -daemon (run through perfbench/run.sh)")
	}
	start := time.Now()
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(b.daemon, "-addr", "127.0.0.1:0", "-log-level", "error", "-pprof")
	cmd.Stdout, cmd.Stderr = aw, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start espserved: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1),
		http: &http.Client{Transport: &http.Transport{}}}
	go func() { d.done <- cmd.Wait() }()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, err
	}
	select {
	case addr := <-aw.addr:
		d.base = "http://" + addr
	case err := <-d.done:
		d.done <- err
		return fail(fmt.Errorf("espserved exited before listening: %v", err))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("espserved did not report its address within 30s"))
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("espserved not ready within 30s (last error %v)", err))
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start).Seconds(), nil
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// collectGarbage makes the daemon finish a garbage collection (the heap
// profile endpoint runs one first), so the warm phase does not pay for
// the cold phase's garbage.
func (d *daemon) collectGarbage() error {
	resp, err := d.http.Get(d.base + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/pprof/heap: HTTP %d", resp.StatusCode)
	}
	return nil
}

// jobView is the part of a job snapshot the client reads.
type jobView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submitWait submits one cell and follows the job's event stream until
// it is terminal. It returns the result bytes, the submit round trip
// and the submit→result latency.
func (d *daemon) submitWait(spec []byte) (res []byte, submitMS, totalMS float64, err error) {
	start := time.Now()
	resp, err := d.http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, 0, 0, err
	}
	var sub jobView
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	submitMS = ms(time.Since(start))
	if resp.StatusCode != http.StatusAccepted || err != nil || sub.ID == "" {
		return nil, submitMS, 0, fmt.Errorf("submit: HTTP %d (decode error %v)", resp.StatusCode, err)
	}
	resp, err = d.http.Get(d.base + "/v1/jobs/" + sub.ID + "/events?format=jsonl")
	if err != nil {
		return nil, submitMS, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, submitMS, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var v jobView
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return nil, submitMS, 0, fmt.Errorf("events: %w", err)
		}
		switch v.State {
		case "succeeded":
			return v.Result, submitMS, ms(time.Since(start)), nil
		case "failed", "canceled":
			return nil, submitMS, 0, fmt.Errorf("job %s %s: %s", sub.ID, v.State, v.Error)
		}
	}
	return nil, submitMS, 0, fmt.Errorf("events for job %s ended before a terminal state (%v)", sub.ID, sc.Err())
}

// metricsz is the part of /metricsz the traced run reads.
type metricsz struct {
	Histograms map[string]histTotals `json:"histograms"`
	Cache      struct {
		MemHits uint64 `json:"mem_hits"`
		Misses  uint64 `json:"misses"`
	} `json:"cache"`
}

func (d *daemon) metricsz() (metricsz, error) {
	var m metricsz
	resp, err := d.http.Get(d.base + "/metricsz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metricsz: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// histTotals are a histogram's observation count and sum.
type histTotals struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
}

// stageTotals accumulates the daemon's stage histograms over the
// intervals of one phase.
type stageTotals map[string]histTotals

// add adds the observations made between snapshots a and b.
func (t stageTotals) add(a, b metricsz) {
	for name, h := range b.Histograms {
		d := t[name]
		d.Count += h.Count - a.Histograms[name].Count
		d.Sum += h.Sum - a.Histograms[name].Sum
		t[name] = d
	}
}

func (t stageTotals) mean(name string) float64 {
	if t[name].Count == 0 {
		return 0
	}
	return t[name].Sum / float64(t[name].Count)
}

// serveRep is one timed serve-sampled repetition: a fresh daemon, one
// cell submitted cold, then resubmitted warm.
type serveRep struct {
	bootS      float64
	rssMB      float64
	coldMS     float64 // submit→result latency of the cold request
	coldCPUMS  float64 // daemon CPU time spent on it
	served     []byte  // the cold result; nil when the cold request failed
	errPct     float64 // the cell's sampling error against the full run
	warmMS     []float64
	submitMS   []float64   // warm submissions' POST round trips
	cold, warm stageTotals // daemon stage histograms, traced runs only
	cache      metricsz    // /metricsz after the repetition, traced runs only
}

// serveOnce boots a daemon with an empty result cache and submits the
// cell for arch from one closed-loop client (cold). Then, with no cold
// job in flight, the client resubmits it (warm). Every result is
// checked.
//
// One warm client rather than nproc: on a 2-vCPU host two clients and
// the daemon need both cores at once, so the warm tail tracked the
// hypervisor's steal from run to run (a quartile spread of 26% over ten
// runs with two clients, 16% over five with one), while one client
// measures the hit path itself.
func serveOnce(b *bench, arch string, traced bool) (serveRep, error) {
	rep := serveRep{cold: stageTotals{}, warm: stageTotals{}}
	e, err := loadExpected()
	if err != nil {
		return rep, err
	}
	want, ok := e.ServeSampled[seedKey(b.seed)][arch]
	if !ok {
		return rep, fmt.Errorf("expected.json has no serve_sampled entry for %s seed %d", arch, b.seed)
	}
	run := serveSpec(arch, b.seed)
	spec, err := json.Marshal(service.JobSpec{Kind: service.KindRun, Run: &run})
	if err != nil {
		return rep, err
	}
	d, boot, err := startDaemon(b)
	if err != nil {
		return rep, err
	}
	defer d.stop()
	rep.bootS = boot
	pid := strconv.Itoa(d.cmd.Process.Pid)

	// snap reads /metricsz on traced runs and charges the histogram
	// observations since the previous snapshot to phase.
	var last metricsz
	snap := func(phase stageTotals) error {
		if !traced {
			return nil
		}
		m, err := d.metricsz()
		if err != nil {
			return err
		}
		if phase != nil {
			phase.add(last, m)
		}
		last, rep.cache = m, m
		return nil
	}
	if err := snap(nil); err != nil {
		return rep, err
	}
	cpu0, err := procCPUTime(pid)
	if err != nil {
		return rep, err
	}
	res, _, total, err := d.submitWait(spec)
	b.check(err == nil && sha(res) == want.Sampled.SHA256, "serve %s seed %d: cold result differs from expected.json (err %v)", arch, b.seed, err)
	if err != nil {
		return rep, nil
	}
	cpu1, err := procCPUTime(pid)
	if err != nil {
		return rep, err
	}
	rep.coldMS, rep.coldCPUMS, rep.served = total, ms(cpu1-cpu0), res
	var got experiment.RunResult
	if err := json.Unmarshal(res, &got); err != nil {
		return rep, fmt.Errorf("serve %s: decode result: %w", arch, err)
	}
	rep.errPct = sampleErrPct(got.Throughput, want.FullThroughput)
	if err := snap(rep.cold); err != nil {
		return rep, err
	}
	if err := d.collectGarbage(); err != nil {
		return rep, err
	}

	for i := 0; i < warmRequests; i++ {
		res, submit, total, err := d.submitWait(spec)
		b.check(err == nil && bytes.Equal(res, rep.served), "serve %s seed %d: warm result differs from cold (err %v)", arch, b.seed, err)
		if err == nil {
			rep.warmMS = append(rep.warmMS, total)
			rep.submitMS = append(rep.submitMS, submit)
		}
	}
	if err := snap(rep.warm); err != nil {
		return rep, err
	}
	rep.rssMB, err = vmHWM(pid)
	return rep, err
}

// serveReps runs repetitions until the measurement time is spent,
// cycling through the seven architectures (each at least once).
func serveReps(b *bench, traced bool, each func(arch string, rep serveRep)) error {
	i := 0
	return untilDeadline(b, len(paperArchs), func() error {
		a := paperArchs[i%len(paperArchs)]
		i++
		rep, err := serveOnce(b, a, traced)
		if err == nil {
			each(a, rep)
		}
		return err
	})
}

// sampleErrPct is |sampled - full| / full in percent.
func sampleErrPct(sampled, full float64) float64 {
	return 100 * math.Abs(sampled-full) / full
}

// bootProbes boots and stops n daemons, returning their boot times.
func bootProbes(b *bench, n int) ([]float64, error) {
	var boots []float64
	for i := 0; i < n; i++ {
		d, boot, err := startDaemon(b)
		if err != nil {
			return nil, err
		}
		d.stop()
		boots = append(boots, boot)
	}
	return boots, nil
}

func serveRun(b *bench) (map[string]float64, error) {
	// A sampled cell stands for its full budget on every measured core.
	rc, err := serveConfig(paperArchs[0], b.seed)
	if err != nil {
		return nil, err
	}
	instr := cellInstructions(rc)
	boots, err := bootProbes(b, serveBootProbes)
	if err != nil {
		return nil, err
	}
	var rss, kips, coldMS []float64
	var warmMS [][]float64
	var errPct float64
	err = serveReps(b, false, func(_ string, rep serveRep) {
		boots = append(boots, rep.bootS)
		if rep.served == nil {
			return
		}
		rss = append(rss, rep.rssMB)
		kips = append(kips, instr/rep.coldCPUMS)
		coldMS = append(coldMS, rep.coldMS)
		warmMS = append(warmMS, rep.warmMS)
		errPct = math.Max(errPct, rep.errPct)
	})
	if err != nil {
		return nil, err
	}
	w := summarizeWarm(warmMS)
	m := map[string]float64{
		"setup_s":      median(boots),
		"sim_kips":     median(kips),
		"peak_rss_mb":  median(rss),
		"cold_p50_ms":  median(coldMS),
		"warm_p50_ms":  w.p50,
		"warm_tail_ms": w.tail,
	}
	logf("setup_s %.4f (median boot of %d daemons); sim_kips %.1f (sampled: represented instructions per daemon CPU-second of a cold cell); cold_p50_ms %.1f (n=%d); %s; peak_rss_mb %.1f (daemon); sample_err_pct %.2f (largest of %d architectures)",
		m["setup_s"], len(boots), m["sim_kips"], m["cold_p50_ms"], len(coldMS), w, m["peak_rss_mb"], errPct, len(paperArchs))
	return m, nil
}

// serveTraced runs the same repetitions with /metricsz snapshots around
// each phase, then runs every cold cell directly with experiment.Run:
// served bytes must equal the direct run's, the direct run's time is
// the simulation's share of cold latency, and its Throughput against
// the committed full run of the identical RunConfig is the sampling
// error.
func serveTraced(b *bench) (map[string]float64, error) {
	var (
		submitMS, queueMS, runMS, encodeMS []float64
		hits, misses                       []float64
		served                             = map[string][][]byte{}
	)
	err := serveReps(b, true, func(a string, rep serveRep) {
		if rep.served == nil {
			return
		}
		served[a] = append(served[a], rep.served)
		submitMS = append(submitMS, median(rep.submitMS))
		queueMS = append(queueMS, rep.warm.mean("service.stage.queue_wait_ms"))
		runMS = append(runMS, rep.cold.mean("service.stage.run_ms"))
		encodeMS = append(encodeMS, rep.cold.mean("service.stage.encode_ms"))
		hits = append(hits, float64(rep.cache.Cache.MemHits))
		misses = append(misses, float64(rep.cache.Cache.Misses))
	})
	if err != nil {
		return nil, err
	}
	e, err := loadExpected()
	if err != nil {
		return nil, err
	}
	want := e.ServeSampled[seedKey(b.seed)]
	var directMS []float64
	var maxErr float64
	for _, a := range paperArchs {
		rc, err := serveConfig(a, b.seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := experiment.Run(rc)
		directMS = append(directMS, ms(time.Since(start)))
		direct := resultBytes(res)
		for _, got := range served[a] {
			b.check(err == nil && bytes.Equal(got, direct), "serve %s seed %d: served result differs from a direct experiment.Run (err %v)", a, b.seed, err)
		}
		maxErr = math.Max(maxErr, sampleErrPct(res.Throughput, want[a].FullThroughput))
	}
	m := zeroLayers()
	m["service.submit_ms"] = median(submitMS)
	m["service.queue_wait_ms"] = median(queueMS)
	m["service.run_ms"] = median(runMS)
	m["service.encode_ms"] = median(encodeMS)
	m["resultcache.hits"] = median(hits)
	m["resultcache.misses"] = median(misses)
	m["experiment.sampled_run_ms"] = median(directMS)
	m["experiment.sample_err_pct"] = maxErr
	logf("cold cell: run %.1f ms in the daemon, %.1f ms direct; sample_err_pct %.2f (largest of %d architectures, against full runs)",
		m["service.run_ms"], m["experiment.sampled_run_ms"], maxErr, len(paperArchs))
	return m, nil
}
