package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between the closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tail reports a tail quantile with its sample support on stderr and
// returns it.
func tail(name string, xs []float64, p float64) float64 {
	v := quantile(xs, p)
	beyond := int(float64(len(xs)) * (1 - p))
	notef("%s = p%g of %d samples (%d beyond it): %.3f ms", name, p*100, len(xs), beyond, v)
	return v
}

// timeSetups runs setup n times, each from a collected heap, and
// returns the median set-up time in seconds on clock. Only the last
// set-up's state is kept; setup tears down the earlier ones itself.
func timeSetups(n int, clock func() time.Duration, setup func(last bool) error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := clock()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		ts = append(ts, (clock() - t0).Seconds())
	}
	notef("set-up times: %.4f s", ts)
	return median(ts), nil
}

// processStart anchors wallNow.
var processStart = time.Now()

// wallNow is the wall time since the process started.
func wallNow() time.Duration { return time.Since(processStart) }

// cpuNow is this process's CPU time, user and system, over all its
// threads. The kernel keeps time the hypervisor stole from the vCPU
// (Linux paravirt steal accounting) and time other processes held it out
// of this clock, so on a shared host it varies far less than wall time
// for the same work.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// peakRSSMB returns the peak resident set (VmHWM) of a process in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// hostCPU is a reading of the host's aggregate /proc/stat cpu line.
type hostCPU struct{ steal, total float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealFrac(a, b hostCPU) float64 { return ratio(b.steal-a.steal, b.total-a.total) }

// procCPUSeconds is another process's user+system CPU time from
// /proc/<pid>/stat, in seconds (clock ticks of 1/100 s).
func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// noteHost reports host conditions that explain noise without failing
// the run.
func noteHost(steal float64) {
	if steal > 0.05 {
		notef("note: the hypervisor stole %.1f%% of host CPU time during the window; timings are noisier", 100*steal)
	}
}

// gcPauseMS is this process's cumulative GC stop-the-world pause time.
func gcPauseMS() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.PauseTotalNs) / 1e6
}

// heapAllocs are cumulative heap allocation counts, read without
// stopping the world.
type heapAllocs struct{ objects, bytes uint64 }

func readHeapAllocs() heapAllocs {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return heapAllocs{objects: s[0].Value.Uint64() + s[1].Value.Uint64(), bytes: s[2].Value.Uint64()}
}

// resetPeakRSS restarts a process's peak-RSS count (VmHWM) from its
// current resident set.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// startWindow returns set-up garbage to the OS before the window.
func startWindow() { debug.FreeOSMemory() }
