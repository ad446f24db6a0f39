package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// sim-quick: closed loop, one caller, in process. Each job is a whole
// quick-depth thermal job from trace generation to the steady solve.
const (
	simFF      = 300_000
	simWarm    = 60_000
	simMeasure = 60_000
	simGrid    = 16
	// simStrata is the job-list length: the (config, trace) pool,
	// sorted by cost, is cut into this many equal strata and the seed
	// draws one job from each.
	simStrata = 12
	// simSLO is sim-quick's latency limit for slo_ok_frac, about 3x its
	// p90 on a 2-vCPU host.
	simSLO = 1200 * time.Millisecond
)

// simSpans are the spans of one sim-quick job, in call order.
var simSpans = []string{"trace.new", "cpu.new", "cpu.ff", "cpu.warmup", "cpu.run", "power.compute", "thermal.build", "thermal.solve"}

// simOut is one sim-quick job's result and layer counters.
type simOut struct {
	stats   *cpu.Stats
	peakK   float64
	sweeps  int
	emitted uint64

	// Traced jobs only.
	jt                *jobTrace
	nextFF, nextCycle time.Duration
	nextCalls         int64
	allocs, bytes     uint64
}

func floorplanFor(cfg config.Machine) (*floorplan.Floorplan, func(*floorplan.Floorplan, thermal.PowerFor, int, int) (*thermal.Stack, error)) {
	if cfg.ThreeD {
		return floorplan.Stacked(), thermal.BuildStacked
	}
	return floorplan.Planar(), thermal.BuildPlanar
}

func wattsOf(b *power.Breakdown) thermal.PowerFor {
	return func(u floorplan.Unit) float64 {
		return b.UnitW[power.UnitKey{Block: u.Block, Core: u.Core, Die: u.Die}]
	}
}

// runSim runs one sim-quick job; jt is nil for an untraced job.
func runSim(cfg config.Machine, prof trace.Profile, jt *jobTrace) (simOut, error) {
	var o simOut
	var gen *trace.Generator
	jt.do("trace.new", func() { gen = trace.NewGenerator(prof) })
	var src trace.Source = gen
	var ts *timedSource
	var a0 heapAllocs
	if jt != nil {
		ts = &timedSource{src: gen}
		src = ts
		a0 = readHeapAllocs()
	}
	var c *cpu.Core
	var err error
	jt.do("cpu.new", func() { c, err = cpu.New(cfg, src) })
	if err != nil {
		return o, err
	}
	jt.do("cpu.ff", func() { c.FastForward(simFF) })
	if ts != nil {
		o.nextFF = ts.total()
	}
	jt.do("cpu.warmup", func() { c.Warmup(simWarm) })
	jt.do("cpu.run", func() { o.stats = c.Run(simMeasure) })
	if jt != nil {
		a1 := readHeapAllocs()
		o.nextCycle = ts.total() - o.nextFF
		o.nextCalls = ts.calls
		o.allocs = a1.objects - a0.objects
		o.bytes = a1.bytes - a0.bytes
	}
	o.emitted = gen.Emitted()
	fp, build := floorplanFor(cfg)
	var b *power.Breakdown
	jt.do("power.compute", func() { b, err = power.Compute(cfg, o.stats, fp) })
	if err != nil {
		return o, err
	}
	var st *thermal.Stack
	jt.do("thermal.build", func() { st, err = build(fp, wattsOf(b), simGrid, simGrid) })
	if err != nil {
		return o, err
	}
	var sol *thermal.Solution
	jt.do("thermal.solve", func() { sol, err = st.Solve() })
	if err != nil {
		return o, err
	}
	o.peakK, _, _, _ = sol.Peak()
	o.sweeps = sol.Iterations
	jt.finish()
	o.jt = jt
	return o, nil
}

// simJob is one entry of a seeded sim-quick job list.
type simJob struct {
	cfg  config.Machine
	prof trace.Profile
	ref  simRef
}

// simDrawer draws sim-quick passes: the (config, trace) pool, sorted by
// cost, is cut into simStrata equal strata and each pass takes one job
// from each, so that every pass, and so every seed, runs about the same
// simulated work while the jobs themselves vary.
type simDrawer struct {
	pool []simRef
	rng  *rand.Rand
}

func newSimDrawer(ref *reference, seed int64) *simDrawer {
	pool := append([]simRef(nil), ref.SimQuick...)
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].CostMS < pool[j].CostMS })
	return &simDrawer{pool: pool, rng: rand.New(rand.NewSource(seed))}
}

func (d *simDrawer) pass() ([]simJob, error) {
	var jobs []simJob
	for s := 0; s < simStrata; s++ {
		lo, hi := s*len(d.pool)/simStrata, (s+1)*len(d.pool)/simStrata
		j, err := d.job(d.pool[lo+d.rng.Intn(hi-lo)])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func (d *simDrawer) job(r simRef) (simJob, error) {
	cfg, err := config.ByName(r.Config)
	if err != nil {
		return simJob{}, err
	}
	prof, err := trace.ProfileByName(r.Trace)
	if err != nil {
		return simJob{}, err
	}
	return simJob{cfg: cfg, prof: prof, ref: r}, nil
}

// verify compares a job's output with its reference.
func (j simJob) verify(o simOut) error {
	d, err := statsDigest(o.stats)
	if err != nil {
		return err
	}
	if d != j.ref.Stats {
		return fmt.Errorf("%s/%s: cpu.Stats digest %s, reference %s", j.cfg.Name, j.prof.Name, d, j.ref.Stats)
	}
	if o.peakK != j.ref.PeakK {
		return fmt.Errorf("%s/%s: peak %v K, reference %v K", j.cfg.Name, j.prof.Name, o.peakK, j.ref.PeakK)
	}
	return nil
}

func runSimQuick(rc runConfig) (*result, error) {
	var draw *simDrawer
	setup, err := timeSetups(setupReps, cpuNow, func(bool) error {
		ref, err := loadReference(refPath)
		if err != nil {
			return err
		}
		draw = newSimDrawer(ref, rc.Seed)
		// One untimed job, the pool's median by cost whatever the seed,
		// warms the heap and the code paths.
		warm, err := draw.job(draw.pool[len(draw.pool)/2])
		if err != nil {
			return err
		}
		o, err := runSim(warm.cfg, warm.prof, nil)
		if err != nil {
			return err
		}
		if err := warm.verify(o); err != nil {
			return fmt.Errorf("%w: warm-up job: %v", errWrong, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var outs []simOut
	var traceErr, drawErr error
	var cov coverage
	var jobs []simJob
	var cpiCycles, cpiInsts float64 // over pass 0, which the seed alone fixes
	startWindow()
	h0, cpu0, gc0 := readHostCPU(), cpuNow().Seconds(), gcPauseMS()
	loop, full, elapsed, rss := closedLoop(simStrata, rc.Window, rc.Traced, func(pass, i int, traced bool) (jobTime, bool) {
		if i == 0 {
			jobs, drawErr = draw.pass()
		}
		if drawErr != nil {
			return jobTime{}, false
		}
		t0 := startJob()
		o, err := runSim(jobs[i].cfg, jobs[i].prof, newJobTrace(traced))
		d := t0.since()
		if err == nil {
			err = jobs[i].verify(o)
		}
		if err != nil {
			notef("FAIL %v", err)
			return d, false
		}
		if pass == 0 {
			cpiCycles += float64(o.stats.Cycles)
			cpiInsts += float64(o.stats.Insts)
		}
		if traced {
			if cerr := o.jt.check(simSpans); cerr != nil && traceErr == nil {
				traceErr = cerr
			}
			cov.add(o.jt)
			outs = append(outs, o)
		}
		return d, true
	})
	if drawErr != nil {
		return nil, drawErr
	}
	steal, cpuS, gcMS := stealFrac(h0, readHostCPU()), cpuNow().Seconds()-cpu0, gcPauseMS()-gc0
	noteHost(steal)

	m := metricSet{}
	attempted, failed := loopE2E(m, loop, full, elapsed, rss, simSLO)
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
	simLayers(lm, outs)
	lm.set("cpu.sim_cpi", ratio(cpiCycles, cpiInsts))
	lm.set("gc.pause_ms_per_job", ratio(gcMS, float64(attempted)))
	lm.set("tracing.overhead_ms", tracingOverhead(loop, full))
	lm.set("host.steal_frac", steal)
	lm.set("proc.cpu_s_per_job", ratio(cpuS, float64(attempted)))
	res.Metrics = lm
	return res, nil
}

// simLayers fills the per-layer metrics of traced sim-quick jobs.
func simLayers(m metricSet, outs []simOut) {
	var ffNS, cycNS, newMS, powerUS, buildMS, solveMS, nextNS float64
	var ffInsts, cycInsts, calls, allocs, bytes, emitted float64
	for _, o := range outs {
		ffNS += float64(o.jt.dur("cpu.ff") - o.nextFF)
		cycNS += float64(o.jt.dur("cpu.warmup") + o.jt.dur("cpu.run") - o.nextCycle)
		ffInsts += simFF
		cycInsts += simWarm + float64(o.stats.Insts)
		newMS += ms(o.jt.dur("cpu.new"))
		powerUS += float64(o.jt.dur("power.compute")) / 1e3
		buildMS += ms(o.jt.dur("thermal.build"))
		solveMS += ms(o.jt.dur("thermal.solve"))
		nextNS += float64(o.nextFF + o.nextCycle)
		calls += float64(o.nextCalls)
		allocs += float64(o.allocs)
		bytes += float64(o.bytes)
		emitted += float64(o.emitted)
	}
	n := float64(len(outs))
	m.set("cpu.ff_ns_per_inst", ratio(ffNS, ffInsts))
	m.set("cpu.cycle_ns_per_inst", ratio(cycNS, cycInsts))
	m.set("cpu.allocs_per_inst", ratio(allocs, ffInsts+cycInsts))
	m.set("cpu.bytes_per_inst", ratio(bytes, ffInsts+cycInsts))
	m.set("cpu.new_ms", ratio(newMS, n))
	m.set("trace.next_ns", ratio(nextNS, calls))
	m.set("trace.insts_per_job", ratio(emitted, n))
	m.set("power.compute_us", ratio(powerUS, n))
	m.set("thermal.build_ms", ratio(buildMS, n))
	m.set("thermal.solve_ms", ratio(solveMS, n))
	var sweeps float64
	for _, o := range outs {
		sweeps += float64(o.sweeps)
	}
	m.set("thermal.sweeps_per_solve", ratio(sweeps, n))
	var maxRes time.Duration
	for _, o := range outs {
		if r := o.jt.residual(); r > maxRes {
			maxRes = r
		}
	}
	m.set("tracing.residual_ms_max", ms(maxRes))
}
