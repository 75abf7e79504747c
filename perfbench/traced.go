package main

// The traced driver runs one full-detail simulation the way
// experiment.Run does — arch.Build, Substrate.Reseed, Spec.Bind, one
// cpu.Core per core on a serial sim.Engine, warm-up then measurement —
// but assembles it itself so it can wrap each layer boundary from
// outside the program: an engine probe times every dispatched event, an
// arch.System decorator times Access and WriteBack (Access split by the
// level that satisfied it), and an InstrSource decorator counts Next.
// Its Cycles and Retired must equal experiment.Run's exactly; the
// workloads check that on every traced cell.

import (
	"fmt"
	"sync"
	"time"

	"espnuca/internal/arch"
	"espnuca/internal/cpu"
	"espnuca/internal/experiment"
	"espnuca/internal/mem"
	"espnuca/internal/sim"
	"espnuca/internal/workload"
)

// layerCost is the per-layer host cost and work of traced runs, summed
// over cells. Times are host nanoseconds.
type layerCost struct {
	events     uint64
	runNS      int64 // RunUntil wall time
	dispatchNS int64 // time inside event callbacks (probe wallNS)
	buildNS    int64 // arch.Build + Substrate.Reseed + Spec.Bind

	accessCalls, writebackCalls uint64
	offchipNS, onchipNS         int64
	writebackNS                 int64
	nextCalls                   uint64

	l1Hits, l1Misses      uint64
	l2Hits, remoteL1      uint64
	offchip, dramAccesses uint64
	linkWaits, dirLines   uint64
}

func (l *layerCost) add(o layerCost) {
	l.events += o.events
	l.runNS += o.runNS
	l.dispatchNS += o.dispatchNS
	l.buildNS += o.buildNS
	l.accessCalls += o.accessCalls
	l.writebackCalls += o.writebackCalls
	l.offchipNS += o.offchipNS
	l.onchipNS += o.onchipNS
	l.writebackNS += o.writebackNS
	l.nextCalls += o.nextCalls
	l.l1Hits += o.l1Hits
	l.l1Misses += o.l1Misses
	l.l2Hits += o.l2Hits
	l.remoteL1 += o.remoteL1
	l.offchip += o.offchip
	l.dramAccesses += o.dramAccesses
	l.linkWaits += o.linkWaits
	l.dirLines += o.dirLines
}

// metrics converts the totals into per-layer metrics. nextNS is the
// replayed cost of the counted Next calls (see replayNext).
func (l *layerCost) metrics(m map[string]float64, nextNS int64) {
	nsMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	m["sim.events"] = float64(l.events)
	m["sim.self_ms"] = nsMS(l.runNS - l.dispatchNS)
	m["cpu.self_ms"] = nsMS(l.dispatchNS - l.offchipNS - l.onchipNS - l.writebackNS - nextNS)
	m["coherence.l1_hits"] = float64(l.l1Hits)
	m["coherence.l1_misses"] = float64(l.l1Misses)
	m["workload.next_calls"] = float64(l.nextCalls)
	m["workload.next_ms"] = nsMS(nextNS)
	m["arch.access_calls"] = float64(l.accessCalls)
	m["arch.access_offchip_ms"] = nsMS(l.offchipNS)
	m["arch.access_onchip_ms"] = nsMS(l.onchipNS)
	m["arch.writeback_calls"] = float64(l.writebackCalls)
	m["arch.writeback_ms"] = nsMS(l.writebackNS)
	m["arch.build_ms"] = nsMS(l.buildNS)
	m["arch.l2_hits"] = float64(l.l2Hits)
	m["arch.remote_l1"] = float64(l.remoteL1)
	m["arch.offchip"] = float64(l.offchip)
	m["mem.dram_accesses"] = float64(l.dramAccesses)
	m["noc.link_wait_cycles"] = float64(l.linkWaits)
	m["coherence.dir_lines"] = float64(l.dirLines)
	m["trace.total_ms"] = nsMS(l.buildNS + l.runNS)
}

// dispatchProbe sums the host time spent inside event callbacks.
type dispatchProbe struct{ ns int64 }

func (p *dispatchProbe) OnDispatch(_ sim.Cycle, _ int, wallNS int64) { p.ns += wallNS }

// timedSystem times the memory system's entry points.
type timedSystem struct {
	arch.System
	accessCalls, writebackCalls  uint64
	offchipNS, onchipNS, wbackNS int64
}

func (s *timedSystem) Access(at sim.Cycle, core int, line mem.Line, write bool) arch.Result {
	start := time.Now()
	r := s.System.Access(at, core, line, write)
	d := time.Since(start).Nanoseconds()
	s.accessCalls++
	if r.Level == arch.OffChip {
		s.offchipNS += d
	} else {
		s.onchipNS += d
	}
	return r
}

func (s *timedSystem) WriteBack(at sim.Cycle, core int, line mem.Line, dirty bool) {
	start := time.Now()
	s.System.WriteBack(at, core, line, dirty)
	s.wbackNS += time.Since(start).Nanoseconds()
	s.writebackCalls++
}

// countedSource counts Next calls. It does not time them: a clock read
// per call would cost about as much as Next itself.
type countedSource struct {
	src cpu.InstrSource
	n   uint64
}

func (c *countedSource) Next() workload.Instr {
	c.n++
	return c.src.Next()
}

// tracedCell is one traced simulation's outcome.
type tracedCell struct {
	Cycles  sim.Cycle
	Retired uint64
	cost    layerCost
	next    [8]uint64 // Next calls per core, for replayNext
}

// runTraced executes rc (full detail, serial engine) under the layer
// decorators.
func runTraced(rc experiment.RunConfig) (tracedCell, error) {
	var out tracedCell
	if rc.SampleWindows > 0 || rc.EngineShards > 0 || rc.Metrics != nil {
		return out, fmt.Errorf("traced driver: %s/%s: only plain full-detail runs can be traced", rc.Arch, rc.Workload)
	}
	buildStart := time.Now()
	rc.System.Seed = rc.Seed
	sys, err := arch.Build(rc.Arch, rc.System)
	if err != nil {
		return out, err
	}
	sys.Sub().Reseed(rc.Seed)
	bound, err := bind(rc)
	if err != nil {
		return out, err
	}
	out.cost.buildNS = time.Since(buildStart).Nanoseconds()

	ts := &timedSystem{System: sys}
	eng := sim.NewEngine()
	probe := &dispatchProbe{}
	eng.SetProbe(probe)
	cores := make([]*cpu.Core, rc.System.Cores)
	srcs := make([]*countedSource, rc.System.Cores)
	measured := bound.Active
	isMeasured := func(c int) bool { return measured&(1<<uint(c)) != 0 }
	for c := range cores {
		target := rc.Warmup + rc.Instructions
		if !isMeasured(c) {
			target = ^uint64(0) >> 1 // idle cores run until the measured ones finish
		}
		srcs[c] = &countedSource{src: bound.Streams[c]}
		cores[c] = cpu.New(c, rc.Core, eng, ts, srcs[c], target)
		cores[c].SetWarmup(rc.Warmup)
		cores[c].Start()
	}
	all := func(done func(*cpu.Core) bool) func() bool {
		return func() bool {
			for c, core := range cores {
				if isMeasured(c) && !done(core) {
					return false
				}
			}
			return true
		}
	}
	runStart := time.Now()
	if rc.Warmup > 0 {
		eng.RunUntil(rc.MaxCycles, all(func(c *cpu.Core) bool { return c.Warmed() }))
	}
	eng.RunUntil(rc.MaxCycles, all(func(c *cpu.Core) bool { return c.Done }))
	out.cost.runNS = time.Since(runStart).Nanoseconds()

	for c, core := range cores {
		if c < len(out.next) {
			out.next[c] = srcs[c].n
		}
		out.cost.nextCalls += srcs[c].n
		if !isMeasured(c) {
			continue
		}
		dt, dr := core.MeasuredWindow()
		out.Retired += dr
		if dt > out.Cycles {
			out.Cycles = dt
		}
	}
	sub := sys.Sub()
	hits, misses := sub.L1.HitMissTotals()
	out.cost.events = eng.Dispatched
	out.cost.dispatchNS = probe.ns
	out.cost.accessCalls = ts.accessCalls
	out.cost.writebackCalls = ts.writebackCalls
	out.cost.offchipNS = ts.offchipNS
	out.cost.onchipNS = ts.onchipNS
	out.cost.writebackNS = ts.wbackNS
	out.cost.l1Hits, out.cost.l1Misses = hits, misses
	out.cost.l2Hits = sub.Counts[arch.LocalL2] + sub.Counts[arch.RemoteL2] + sub.Counts[arch.SharedL2]
	out.cost.remoteL1 = sub.Counts[arch.RemoteL1]
	out.cost.offchip = sub.Counts[arch.OffChip]
	out.cost.dramAccesses = sub.DRAM.Accesses()
	out.cost.linkWaits = uint64(sub.Mesh.LinkWaits())
	out.cost.dirLines = uint64(sub.Dir.Lines())
	return out, nil
}

// bind instantiates rc's workload streams as experiment.RunOn does.
func bind(rc experiment.RunConfig) (*workload.Bound, error) {
	spec, ok := workload.ByName(rc.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", rc.Workload)
	}
	wlLines := rc.WorkloadL2Lines
	if wlLines == 0 {
		wlLines = rc.System.L2Lines()
	}
	return spec.Bind(wlLines, rc.System.L1ILines(), rc.Seed), nil
}

// replayNext measures what the counted Next calls of a traced cell cost
// on their own: it binds the same streams again and replays exactly as
// many calls per core, under one clock read per core.
func replayNext(rc experiment.RunConfig, next [8]uint64) (int64, error) {
	bound, err := bind(rc)
	if err != nil {
		return 0, err
	}
	var ns int64
	var sink workload.Instr
	for c, n := range next {
		st := bound.Streams[c]
		if st == nil || n == 0 {
			continue
		}
		start := time.Now()
		for i := uint64(0); i < n; i++ {
			sink = st.Next()
		}
		ns += time.Since(start).Nanoseconds()
	}
	instrSink = sink
	return ns, nil
}

// instrSink keeps replayed instructions live.
var instrSink workload.Instr

// cellKey identifies a cell inside one workload run.
func cellKey(rc experiment.RunConfig) string {
	return fmt.Sprintf("%s/%s/cc=%g/seed=%d", rc.Arch, rc.Workload, rc.System.CCProbability, rc.Seed)
}

// cellLog collects per-cell results and timings from concurrent matrix
// workers: wall time, and the host CPU time of the worker's thread.
type cellLog struct {
	mu      sync.Mutex
	results map[string]experiment.RunResult
	configs map[string]experiment.RunConfig
	wallMS  []float64
	cpuMS   []float64
}

func newCellLog() *cellLog {
	return &cellLog{results: map[string]experiment.RunResult{}, configs: map[string]experiment.RunConfig{}}
}

// runFunc wraps run as a Matrix.RunFunc that records every cell.
func (l *cellLog) runFunc(run func(experiment.RunConfig) (experiment.RunResult, error)) func(experiment.RunConfig) (experiment.RunResult, error) {
	return func(rc experiment.RunConfig) (experiment.RunResult, error) {
		var res experiment.RunResult
		var err error
		wall, cpu := timeOnThread(func() { res, err = run(rc) })
		l.mu.Lock()
		defer l.mu.Unlock()
		l.wallMS = append(l.wallMS, ms(wall))
		l.cpuMS = append(l.cpuMS, ms(cpu))
		if err == nil {
			l.results[cellKey(rc)] = res
			l.configs[cellKey(rc)] = rc
		}
		return res, err
	}
}
