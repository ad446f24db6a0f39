package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/experiments"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
)

// thermal-resolve: closed loop, one caller, in process, over an
// experiments.Runner whose set-up has simulated every trace of
// resolvePool on every configuration. Each job is one thermal study on
// the cached stats, so the cpu layer does no timed work.
const (
	resFF      = 10_000
	resWarm    = 2_000
	resMeasure = 10_000
	resGrid    = 32
	// resTraces is how many traces of resolvePool a pass studies, one
	// from each cost stratum.
	resTraces = 2
	// The transient study: 20 s of backward-Euler steps of 0.1 s.
	resTransientS     = 20.0
	resTransientStep  = 0.1
	resTransientEvery = 10
	// resSLO is thermal-resolve's latency limit for slo_ok_frac, about
	// 3x its slowest study on a 2-vCPU host.
	resSLO = 3000 * time.Millisecond
)

// The studies of one trace, and their spans in call order.
var resSpans = map[string][]string{
	"steady":    {"experiments.simulate", "power.compute", "thermal.build", "thermal.solve"},
	"leakage":   {"experiments.leakage"},
	"density":   {"experiments.density"},
	"transient": {"experiments.simulate", "power.compute", "thermal.build", "thermal.transient"},
}

// resolveJob is one thermal study of one trace.
type resolveJob struct {
	study string
	cfg   config.Machine
	trace string
}

// resolveJobs lists a trace's studies: a steady solve and a leakage
// fixpoint on every configuration, the density study, and a transient
// on the 3D stack.
func resolveJobs(trace string) []resolveJob {
	var jobs []resolveJob
	for _, cfg := range config.Registry() {
		jobs = append(jobs, resolveJob{"steady", cfg, trace})
	}
	for _, cfg := range config.Registry() {
		jobs = append(jobs, resolveJob{"leakage", cfg, trace})
	}
	return append(jobs,
		resolveJob{"density", config.Baseline(), trace},
		resolveJob{"transient", config.ThreeD(), trace})
}

// newResolveRunner builds a runner and simulates traces on every
// configuration — thermal-resolve's set-up.
func newResolveRunner(traces []string) (*experiments.Runner, error) {
	r := experiments.NewRunner(experiments.Options{
		FastForwardInsts: resFF,
		WarmupInsts:      resWarm,
		MeasureInsts:     resMeasure,
		Parallelism:      1,
		Grid:             resGrid,
	})
	for _, t := range traces {
		for _, cfg := range config.Registry() {
			if _, err := r.Simulate(cfg, t); err != nil {
				return nil, fmt.Errorf("pre-simulating %s/%s: %w", cfg.Name, t, err)
			}
		}
	}
	return r, nil
}

// verifyPresimulated compares the stats the set-up simulated with their
// reference digests.
func verifyPresimulated(r *experiments.Runner, ref *reference) error {
	for _, rr := range ref.Resolve {
		for _, cfg := range config.Registry() {
			st, err := r.Simulate(cfg, rr.Trace)
			if err != nil {
				return err
			}
			d, err := statsDigest(st)
			if err != nil {
				return err
			}
			if d != rr.Stats[cfg.Name] {
				return fmt.Errorf("pre-simulated %s/%s: cpu.Stats digest %s, reference %s", cfg.Name, rr.Trace, d, rr.Stats[cfg.Name])
			}
		}
	}
	return nil
}

// resolveOut is one study's result.
type resolveOut struct {
	peakK   float64
	iters   int        // leakage fixpoint iterations
	density [2]float64 // planar and density-study peaks
	sweeps  int        // SOR sweeps of a steady solve
	jt      *jobTrace
}

func (j resolveJob) run(r *experiments.Runner, jt *jobTrace) (resolveOut, error) {
	var o resolveOut
	var err error
	switch j.study {
	case "leakage":
		var lf *experiments.LeakageFeedbackResult
		jt.do("experiments.leakage", func() { lf, err = experiments.LeakageFeedback(r, j.cfg, j.trace) })
		if err != nil {
			return o, err
		}
		if lf.Diverged {
			return o, fmt.Errorf("leakage fixpoint diverged")
		}
		o.peakK, o.iters = lf.PeakK, lf.Iterations
	case "density":
		jt.do("experiments.density", func() { o.density[0], o.density[1], err = experiments.DensityStudy(r, j.trace) })
		if err != nil {
			return o, err
		}
	default: // steady, transient
		var s *cpu.Stats
		jt.do("experiments.simulate", func() { s, err = r.Simulate(j.cfg, j.trace) })
		if err != nil {
			return o, err
		}
		fp, build := floorplanFor(j.cfg)
		var b *power.Breakdown
		jt.do("power.compute", func() { b, err = power.Compute(j.cfg, s, fp) })
		if err != nil {
			return o, err
		}
		var st *thermal.Stack
		jt.do("thermal.build", func() { st, err = build(fp, wattsOf(b), resGrid, resGrid) })
		if err != nil {
			return o, err
		}
		if j.study == "steady" {
			var sol *thermal.Solution
			jt.do("thermal.solve", func() { sol, err = st.Solve() })
			if err != nil {
				return o, err
			}
			o.peakK, _, _, _ = sol.Peak()
			o.sweeps = sol.Iterations
		} else {
			var tr *thermal.TransientResult
			jt.do("thermal.transient", func() {
				tr, err = st.SolveTransient(resTransientS, resTransientStep, resTransientEvery)
			})
			if err != nil {
				return o, err
			}
			o.peakK = tr.PeakK[len(tr.PeakK)-1]
		}
	}
	jt.finish()
	o.jt = jt
	return o, nil
}

// record stores a study's result in the reference.
func (o resolveOut) record(rr *resolveRef, j resolveJob) {
	switch j.study {
	case "steady":
		rr.Steady[j.cfg.Name] = o.peakK
	case "leakage":
		rr.Leakage[j.cfg.Name] = leakageRef{PeakK: o.peakK, Iterations: o.iters}
	case "density":
		rr.Density = o.density
	case "transient":
		rr.Transient = o.peakK
	}
}

// verify compares a study's result with the reference.
func (o resolveOut) verify(rr *resolveRef, j resolveJob) error {
	got := resolveRef{Steady: map[string]float64{}, Leakage: map[string]leakageRef{}}
	o.record(&got, j)
	ok := true
	switch j.study {
	case "steady":
		ok = got.Steady[j.cfg.Name] == rr.Steady[j.cfg.Name]
	case "leakage":
		ok = got.Leakage[j.cfg.Name] == rr.Leakage[j.cfg.Name]
	case "density":
		ok = got.Density == rr.Density
	case "transient":
		ok = got.Transient == rr.Transient
	}
	if !ok {
		return fmt.Errorf("%s %s/%s: result %+v differs from the reference", j.study, j.cfg.Name, j.trace, o)
	}
	return nil
}

// resolveOrder sorts the pool by cost, cuts it into resTraces strata
// and shuffles each with the seed; pass p studies the p-th trace of
// every stratum (cycling), so each pass has the same cost mix and a run
// covers most of the pool whatever the seed.
func resolveOrder(ref *reference, seed int64) [][]*resolveRef {
	pool := make([]*resolveRef, len(ref.Resolve))
	for i := range ref.Resolve {
		pool[i] = &ref.Resolve[i]
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].CostMS < pool[j].CostMS })
	rng := rand.New(rand.NewSource(seed))
	strata := make([][]*resolveRef, resTraces)
	for s := range strata {
		st := append([]*resolveRef(nil), pool[s*len(pool)/resTraces:(s+1)*len(pool)/resTraces]...)
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		strata[s] = st
	}
	return strata
}

// resolvePass returns pass p's studies and the reference of each.
func resolvePass(strata [][]*resolveRef, p int) ([]resolveJob, []*resolveRef) {
	var jobs []resolveJob
	var refs []*resolveRef
	for _, st := range strata {
		rr := st[p%len(st)]
		for _, j := range resolveJobs(rr.Trace) {
			jobs = append(jobs, j)
			refs = append(refs, rr)
		}
	}
	return jobs, refs
}

func runThermalResolve(rc runConfig) (*result, error) {
	var (
		r      *experiments.Runner
		strata [][]*resolveRef
	)
	setup, err := timeSetups(setupReps, cpuNow, func(last bool) error {
		ref, err := loadReference(refPath)
		if err != nil {
			return err
		}
		strata = resolveOrder(ref, rc.Seed)
		var names []string
		for _, rr := range ref.Resolve {
			names = append(names, rr.Trace)
		}
		if r, err = newResolveRunner(names); err != nil {
			return err
		}
		if err := verifyPresimulated(r, ref); err != nil {
			return fmt.Errorf("%w: %v", errWrong, err)
		}
		// One untimed study warms the solver's code paths.
		jobs, refs := resolvePass(strata, 0)
		o, err := jobs[0].run(r, nil)
		if err != nil {
			return err
		}
		if err := o.verify(refs[0], jobs[0]); err != nil {
			return fmt.Errorf("%w: warm-up job: %v", errWrong, err)
		}
		if !last {
			r = nil // let the next set-up start from a collected heap
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var outs []resolveOut
	var outJobs []resolveJob
	var traceErr error
	var cov coverage
	var jobs []resolveJob
	var jref []*resolveRef
	startWindow()
	h0, cpu0 := readHostCPU(), cpuNow().Seconds()
	gc0 := gcPauseMS()
	loop, full, elapsed, rss := closedLoop(resTraces*len(resolveJobs("")), rc.Window, rc.Traced, func(pass, i int, traced bool) (jobTime, bool) {
		if i == 0 {
			jobs, jref = resolvePass(strata, pass)
		}
		t0 := startJob()
		o, err := jobs[i].run(r, newJobTrace(traced))
		d := t0.since()
		if err == nil {
			err = o.verify(jref[i], jobs[i])
		}
		if err != nil {
			notef("FAIL %v", err)
			return d, false
		}
		if traced {
			if cerr := o.jt.check(resSpans[jobs[i].study]); cerr != nil && traceErr == nil {
				traceErr = fmt.Errorf("%s: %w", jobs[i].study, cerr)
			}
			cov.add(o.jt)
			outs = append(outs, o)
			outJobs = append(outJobs, jobs[i])
		}
		return d, true
	})
	steal, cpuS := stealFrac(h0, readHostCPU()), cpuNow().Seconds()-cpu0
	noteHost(steal)
	gc1 := gcPauseMS()

	m := metricSet{}
	attempted, failed := loopE2E(m, loop, full, elapsed, rss, resSLO)
	m.set("setup_s", setup)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
	if !rc.Traced {
		return res, nil
	}
	if traceErr == nil {
		traceErr = cov.err()
	}
	if traceErr != nil {
		return nil, fmt.Errorf("traced run: %w", traceErr)
	}
	lm := newLayerSet()
	resolveLayers(lm, outs, outJobs)
	lm.set("gc.pause_ms_per_job", ratio(gc1-gc0, float64(attempted)))
	lm.set("tracing.overhead_ms", tracingOverhead(loop, full))
	lm.set("host.steal_frac", steal)
	lm.set("proc.cpu_s_per_job", ratio(cpuS, float64(attempted)))
	res.Metrics = lm
	return res, nil
}

// resolveLayers fills the per-layer metrics of traced studies.
func resolveLayers(m metricSet, outs []resolveOut, jobs []resolveJob) {
	var powerUS, buildMS, solveMS, transMS, leakMS, densMS, sweeps, solves []float64
	var maxRes time.Duration
	for i, o := range outs {
		switch jobs[i].study {
		case "steady", "transient":
			powerUS = append(powerUS, float64(o.jt.dur("power.compute"))/1e3)
			buildMS = append(buildMS, ms(o.jt.dur("thermal.build")))
			if jobs[i].study == "steady" {
				solveMS = append(solveMS, ms(o.jt.dur("thermal.solve")))
				sweeps = append(sweeps, float64(o.sweeps))
			} else {
				transMS = append(transMS, ms(o.jt.dur("thermal.transient")))
			}
		case "leakage":
			leakMS = append(leakMS, ms(o.jt.dur("experiments.leakage")))
			// The fixpoint solves once without feedback, then once per
			// iteration.
			solves = append(solves, float64(o.iters+1))
		case "density":
			densMS = append(densMS, ms(o.jt.dur("experiments.density")))
		}
		if r := o.jt.residual(); r > maxRes {
			maxRes = r
		}
	}
	m.set("power.compute_us", mean(powerUS))
	m.set("thermal.build_ms", mean(buildMS))
	m.set("thermal.solve_ms", mean(solveMS))
	m.set("thermal.sweeps_per_solve", mean(sweeps))
	m.set("thermal.transient_ms", mean(transMS))
	m.set("experiments.leakage_ms", mean(leakMS))
	m.set("experiments.leakage_solves", mean(solves))
	m.set("experiments.density_ms", mean(densMS))
	m.set("tracing.residual_ms_max", ms(maxRes))
}
