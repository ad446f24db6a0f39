package main

import (
	"os"
	"time"
)

// loopJob is one timed op of a closed loop.
type loopJob struct {
	pass   int
	ms     float64 // process CPU time
	wallMS float64
	ok     bool
	traced bool
}

// jobTime is one closed-loop job's duration on both clocks. The closed
// loops report CPU time: one caller in one process on a shared host
// loses wall time to hypervisor steal in phases of minutes, which moved
// wall-time medians by a third between two sets of runs of the same
// code. Wall time is noted on stderr.
type jobTime struct{ cpu, wall time.Duration }

func startJob() jobTime { return jobTime{cpuNow(), wallNow()} }

// since returns the time elapsed since t was taken by startJob.
func (t jobTime) since() jobTime { return jobTime{cpuNow() - t.cpu, wallNow() - t.wall} }

// closedLoop runs passes of n jobs back to back until the window
// closes. Every pass has the same stratified composition, so statistics
// over whole passes do not depend on where the window cut; the pass cut
// off counts only towards attempted and failed. With traced set, even
// passes are traced and odd ones are not, so the tracing overhead is
// measured on passes of the same composition.
//
// Each pass restarts the process's peak-RSS count, so rss holds every
// whole pass's own peak.
//
// run returns the job's time, which excludes checking its result, and
// whether the result was correct. elapsed is the process CPU time over
// the whole passes; the window itself is wall time.
func closedLoop(n int, window time.Duration, traced bool, run func(pass, i int, traced bool) (jobTime, bool)) (jobs []loopJob, fullPasses int, elapsed jobTime, rss []float64) {
	start := startJob()
	deadline := time.Now().Add(window)
	for pass := 0; ; pass++ {
		if err := resetPeakRSS(os.Getpid()); err != nil {
			notef("note: cannot reset the peak RSS count: %v", err)
		}
		for i := 0; i < n; i++ {
			if !time.Now().Before(deadline) {
				return jobs, fullPasses, elapsed, rss
			}
			tr := traced && pass%2 == 0
			d, ok := run(pass, i, tr)
			jobs = append(jobs, loopJob{pass: pass, ms: ms(d.cpu), wallMS: ms(d.wall), ok: ok, traced: tr})
		}
		fullPasses = pass + 1
		elapsed = start.since()
		mb, err := peakRSSMB(os.Getpid())
		if err != nil {
			notef("reading peak RSS: %v", err)
		}
		rss = append(rss, mb)
	}
}

// loopE2E derives the closed-loop end-to-end metrics.
func loopE2E(m metricSet, jobs []loopJob, fullPasses int, elapsed jobTime, rss []float64, slo time.Duration) (attempted, failed int) {
	var whole, wall []float64
	sloOK := 0
	for _, j := range jobs {
		attempted++
		if !j.ok {
			failed++
		} else if j.ms <= ms(slo) {
			sloOK++
		}
		if j.pass < fullPasses || fullPasses == 0 {
			whole = append(whole, j.ms)
			wall = append(wall, j.wallMS)
		}
	}
	if fullPasses == 0 {
		notef("note: the window closed before one whole pass over the job list; statistics use every job")
		elapsed = jobTime{}
		for _, j := range jobs {
			elapsed.cpu += time.Duration(j.ms * 1e6)
			elapsed.wall += time.Duration(j.wallMS * 1e6)
		}
	}
	m.set("job_ms_p50", median(whole))
	m.set("job_ms_tail", tail("job_ms_tail", whole, 0.9))
	m.set("jobs_per_s", ratio(float64(len(whole)), elapsed.cpu.Seconds()))
	notef("wall time: job p50 %.3f ms, %.3f jobs per wall second (CPU time: %.3f ms, %.3f jobs per CPU second)",
		median(wall), ratio(float64(len(whole)), elapsed.wall.Seconds()), median(whole), ratio(float64(len(whole)), elapsed.cpu.Seconds()))
	m.set("ok_frac", ratio(float64(attempted-failed), float64(attempted)))
	m.set("slo_ok_frac", ratio(float64(sloOK), float64(attempted)))
	if len(rss) == 0 {
		mb, err := peakRSSMB(os.Getpid())
		if err != nil {
			notef("reading peak RSS: %v", err)
		}
		rss = append(rss, mb)
	}
	m.set("peak_rss_mb", median(rss))
	return attempted, failed
}

// tracingOverhead is the traced minus the untraced median over whole
// passes.
func tracingOverhead(jobs []loopJob, fullPasses int) float64 {
	var tr, un []float64
	for _, j := range jobs {
		if j.pass >= fullPasses {
			continue
		}
		if j.traced {
			tr = append(tr, j.ms)
		} else {
			un = append(un, j.ms)
		}
	}
	if len(tr) == 0 || len(un) == 0 {
		notef("note: too few whole passes to measure the tracing overhead")
		return 0
	}
	return median(tr) - median(un)
}
