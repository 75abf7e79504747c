package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// host records the machine a run measured on. It is context printed
// beside every result, not a metric: multi-core figures mean something
// only against the parallel capacity measured here, not against nproc.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	LoadAvg    string  `json:"loadavg_start"`
	Capacity   float64 `json:"parallel_capacity"`
}

// recordHostStart captures everything but the parallel capacity, which
// finish measures after the timed work so the calibration does not
// disturb it.
func recordHostStart() *host {
	h := &host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return h
}

func (h *host) finish() {
	h.Capacity = spinCapacity(100 * time.Millisecond)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// spinCapacity measures how many cores' worth of work two goroutines get
// done at once: the iterations two spinning goroutines complete in d,
// over what one completes alone. Each counter sits on its own cache
// line, so the ratio reflects cores, not false sharing.
// The best of three tries of each side is kept, so a neighbour's burst
// during one try does not skew the ratio.
func spinCapacity(d time.Duration) float64 {
	var one, two uint64
	for i := 0; i < 3; i++ {
		one = max(one, spin(1, d))
		two = max(two, spin(2, d))
	}
	if one == 0 {
		return 0
	}
	return float64(two) / float64(one)
}

func spin(n int, d time.Duration) uint64 {
	type padded struct {
		n uint64
		_ [56]byte
	}
	counts := make([]padded, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := uint64(i + 1)
			for !stop.Load() {
				for j := 0; j < 1000; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				counts[i].n++
			}
			if x == 0 { // keeps the xorshift work live
				counts[i].n++
			}
		}(i)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	var total uint64
	for _, c := range counts {
		total += c.n
	}
	return total
}

// cpuTime is this process's host CPU time, user plus system, over all
// threads. Unlike wall time it leaves out time the hypervisor gives to
// other tenants of a shared machine (steal), which on the 2-vCPU VMs the
// benchmark was tuned on stretched single FT runs from 0.7 s to 1.7 s.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeOnThread runs fn on one locked OS thread and returns its wall
// time and the thread's CPU time. Thread CPU time has nanosecond
// resolution and, like cpuTime, leaves out steal.
func timeOnThread(fn func()) (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPUTime()
	fn()
	return time.Since(start), threadCPUTime() - cpu0
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// procCPUTime is another process's CPU time, user plus system, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPUTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	var ticks uint64
	for _, v := range f[11:13] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS returns this process's peak resident set size in MB while fn
// runs: it resets the kernel's high-water mark (VmHWM) first.
func peakRSS(fn func() error) (float64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	if err := fn(); err != nil {
		return 0, err
	}
	return vmHWM("self")
}

// vmHWM returns a process's peak resident set size in MB (VmHWM).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
