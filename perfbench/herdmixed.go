package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/experiments"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// herd-mixed: open loop at one constant rate below the knee, against a
// gateway and two single-worker backends with sync replication and a
// journal (see startHerd for its fsync policy).
const (
	// herdRate is the arrival rate; the knee measured on a 2-vCPU host
	// is recorded in BENCHMARK.json. At 25/s the herd and the load
	// generator use about 0.3 of a vCPU; at 50/s a run with a quarter of
	// the host's CPU time stolen read a tail 2.5 times that of quiet runs.
	herdRate = 25.0
	// Load-test depth of every spec. Fresh specs vary the measured
	// instruction count over herdVariants values so there are enough
	// never-seen specs.
	herdFF       = 4_000
	herdWarm     = 1_000
	herdMeasure  = 2_000
	herdVariants = 4
	// herdConns caps the load generator's connections to the gateway.
	herdConns = 2
	// herdPoll is the status poll interval.
	herdPoll = 2 * time.Millisecond
	// herdRetries bounds resubmissions of a POST refused with 429/503
	// or failed in transport.
	herdRetries = 3
	// herdSettle bounds the wait for outstanding jobs after the window.
	herdSettle = 15 * time.Second
	// herdSLO is herd-mixed's latency limit for slo_ok_frac, about 3x
	// its p99 at 50/s.
	herdSLO = 150 * time.Millisecond
	// herdEpsilon is the clock-reading tolerance of the server stamps'
	// order in the traced run (client and server read the same host
	// clock).
	herdEpsilon = time.Millisecond
	// herdOverheadProbes is how many status reads the traced run times
	// through the gateway and directly.
	herdOverheadProbes = 100
)

// Each block of 10 arrivals has hits at fixed positions; the rest are
// fresh timing jobs. The hit share is identical in every run and below
// half, so the median stays in the fresh-job mode. Fresh thermal jobs
// are left out: their solver time moved with the host's phases by a
// third between runs and set the tail; thermal-resolve measures the
// solver, and the hot set's thermal hits still cross the herd.
var herdHitAt = [10]bool{1: true, 3: true, 6: true, 8: true}

// herdHotTrace is the trace of every hot-set spec.
const herdHotTrace = "bitcount"

// herdSpec is one job spec the load generator submits.
type herdSpec struct {
	Kind     string `json:"kind"`
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Depths   struct {
		FastForward uint64 `json:"fast_forward"`
		Warmup      uint64 `json:"warmup"`
		Measure     uint64 `json:"measure"`
	} `json:"depths"`
}

func newHerdSpec(kind, cfg, wl string, variant int) herdSpec {
	s := herdSpec{Kind: kind, Config: cfg, Workload: wl}
	s.Depths.FastForward, s.Depths.Warmup, s.Depths.Measure = herdFF, herdWarm, herdMeasure+uint64(variant)
	return s
}

// herdPlan is a seed's inputs: the hot set and the arrival sequence.
type herdPlan struct {
	hot    []herdSpec
	specs  []herdSpec // per arrival
	hit    []bool     // per arrival: a planned hot-set repeat
	hotIdx []int      // per arrival: index into hot for hits
}

// drawHerdPlan draws a seed's specs. Every configuration has its own
// pool of timing specs (traces and depth variants), shuffled with the
// seed. Fresh arrivals cycle through the configurations in a fixed order
// and take the next never-seen spec of that pool, so the seed changes
// which traces run but not the mix of configurations. The hot set is one
// timing spec per configuration plus a planar and a stacked thermal
// spec, all of herdHotTrace and the same in every run, so that warming
// it in set-up costs the same whatever the seed; the pools leave those
// specs out.
func drawHerdPlan(seed int64, arrivals int) (*herdPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := config.Registry()
	pools := make([][]herdSpec, len(cfgs))
	for c, cfg := range cfgs {
		for _, wl := range trace.Names() {
			for v := 0; v < herdVariants; v++ {
				if wl == herdHotTrace && v == 0 {
					continue
				}
				pools[c] = append(pools[c], newHerdSpec("timing", cfg.Name, wl, v))
			}
		}
		rng.Shuffle(len(pools[c]), func(i, j int) { pools[c][i], pools[c][j] = pools[c][j], pools[c][i] })
	}
	pl := &herdPlan{}
	for _, cfg := range cfgs {
		pl.hot = append(pl.hot, newHerdSpec("timing", cfg.Name, herdHotTrace, 0))
		if cfg.Name == config.Baseline().Name || cfg.Name == config.ThreeD().Name {
			pl.hot = append(pl.hot, newHerdSpec("thermal", cfg.Name, herdHotTrace, 0))
		}
	}
	hits, fresh := 0, 0
	for i := 0; i < arrivals; i++ {
		if herdHitAt[i%10] {
			pl.specs = append(pl.specs, pl.hot[hits%len(pl.hot)])
			pl.hit = append(pl.hit, true)
			pl.hotIdx = append(pl.hotIdx, hits%len(pl.hot))
			hits++
			continue
		}
		c := fresh % len(cfgs)
		if len(pools[c]) == 0 {
			return nil, fmt.Errorf("timing spec pool of %s exhausted", cfgs[c].Name)
		}
		pl.specs = append(pl.specs, pools[c][0])
		pools[c] = pools[c][1:]
		fresh++
		pl.hit = append(pl.hit, false)
		pl.hotIdx = append(pl.hotIdx, -1)
	}
	return pl, nil
}

// jobStatus is the part of a job's status the load generator reads.
type jobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Error       string `json:"error"`
	FromCache   bool   `json:"from_cache"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

func (s jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// herdOp is one arrival and everything observed about it.
type herdOp struct {
	spec   herdSpec
	hit    bool
	traced bool
	due    time.Time

	sent, acked, observed time.Time // first connection, POST reply, first terminal observation
	status                jobStatus
	polls, retries        int
	err                   error
	result                []byte

	// jt holds a traced arrival's client spans, timed from due: "late"
	// until the first connection, "submit" until the POST's final reply,
	// and one "poll" per status read, its sleep included.
	jt *jobTrace
}

func (o *herdOp) latency() time.Duration { return o.observed.Sub(o.due) }

// submit posts spec and returns the reply's status.
func submit(ctx context.Context, c *http.Client, url string, body []byte, o *herdOp) (jobStatus, error) {
	var st jobStatus
	for attempt := 0; ; attempt++ {
		rctx := ctx
		if o != nil && o.jt != nil && o.sent.IsZero() {
			rctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
				// The transport takes a second connection when a reused
				// one turns out closed before the request was written;
				// the first one ends the late span.
				GotConn: func(httptrace.GotConnInfo) {
					if o.sent.IsZero() {
						o.sent = time.Now()
						o.jt.add("late", o.due, o.sent)
					}
				},
			})
		}
		req, err := http.NewRequestWithContext(rctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return st, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		var b []byte
		code := 0
		if err == nil {
			b, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
		if o != nil {
			o.acked = time.Now()
		}
		retry := err != nil || code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		if retry && attempt < herdRetries && ctx.Err() == nil {
			if o != nil {
				o.retries++
			}
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
			continue
		}
		if o != nil && !o.sent.IsZero() {
			o.jt.add("submit", o.sent, o.acked)
		}
		if err != nil {
			return st, err
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return st, fmt.Errorf("POST /v1/jobs: %d %s", code, strings.TrimSpace(string(b)))
		}
		return st, json.Unmarshal(b, &st)
	}
}

// await polls a job until it reaches a terminal state.
func await(ctx context.Context, c *http.Client, url string, st jobStatus, o *herdOp) (jobStatus, error) {
	for !st.terminal() {
		t0 := time.Now()
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("job %s still %s: %w", st.ID, st.State, ctx.Err())
		case <-time.After(herdPoll):
		}
		if err := getJSON(ctx, c, url+"/v1/jobs/"+st.ID, &st); err != nil {
			return st, err
		}
		t1 := time.Now()
		if o != nil {
			o.polls++
			o.jt.add("poll", t0, t1)
			if st.terminal() {
				o.observed = t1
			}
		}
	}
	return st, nil
}

func fetchResult(ctx context.Context, c *http.Client, url, id string) ([]byte, error) {
	var raw json.RawMessage
	if err := getJSON(ctx, c, url+"/v1/jobs/"+id+"/result", &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// run drives one arrival from its due time to its first terminal
// observation.
func (o *herdOp) run(ctx context.Context, c *http.Client, url string) {
	body, err := json.Marshal(o.spec)
	if err != nil {
		o.err = err
		return
	}
	st, err := submit(ctx, c, url, body, o)
	if err != nil {
		o.err = err
		return
	}
	if st.terminal() {
		o.observed = o.acked
	}
	if st, err = await(ctx, c, url, st, o); err != nil {
		o.err = err
		return
	}
	if o.jt != nil {
		o.jt.total = o.observed.Sub(o.due)
	}
	o.status = st
	if st.State != "done" {
		o.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
}

// herdRun is the state one herd-mixed run carries from set-up to the
// checks.
type herdRun struct {
	plan      *herdPlan
	h         *herd
	client    *http.Client
	hotResult [][]byte // the fresh result of each hot spec, from set-up
}

// setup starts a herd and warms the hot set.
func (r *herdRun) setup(dir string) error {
	h, err := startHerd(dir)
	if err != nil {
		return err
	}
	r.h = h
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.hotResult = make([][]byte, len(r.plan.hot))
	for i, s := range r.plan.hot {
		body, err := json.Marshal(s)
		if err != nil {
			return err
		}
		// The herd is ready but has served nothing yet; a refusal here is
		// noted and the spec sent again until the set-up deadline.
		st, err := submit(ctx, r.client, h.gwURL, body, nil)
		for err != nil && ctx.Err() == nil {
			notef("note: warming the hot set: %v; sending it again", err)
			time.Sleep(50 * time.Millisecond)
			st, err = submit(ctx, r.client, h.gwURL, body, nil)
		}
		if err == nil {
			st, err = await(ctx, r.client, h.gwURL, st, nil)
		}
		if err == nil && st.State != "done" {
			err = fmt.Errorf("hot job %s %s: %s", st.ID, st.State, st.Error)
		}
		if err == nil {
			r.hotResult[i], err = fetchResult(ctx, r.client, h.gwURL, st.ID)
		}
		if err != nil {
			return fmt.Errorf("warming the hot set: %w", err)
		}
	}
	return nil
}

func runHerdMixed(rc runConfig) (*result, error) {
	arrivals := int(rc.Rate * rc.Window.Seconds())
	arrivals -= arrivals % 10 // whole blocks only
	if arrivals < 10 {
		return nil, fmt.Errorf("window too short for one block of arrivals")
	}
	plan, err := drawHerdPlan(rc.Seed, arrivals)
	if err != nil {
		return nil, err
	}
	r := &herdRun{plan: plan, client: herdClient()}
	defer r.client.CloseIdleConnections()
	rep := 0
	setup, err := timeSetups(setupReps, wallNow, func(last bool) error {
		rep++
		dir := filepath.Join(rc.WorkDir, fmt.Sprintf("herd%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		err := r.setup(dir)
		if err != nil || !last {
			if r.h != nil {
				if serr := r.h.stop(); serr != nil && err == nil {
					err = serr
				}
				r.h = nil
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	h := r.h
	stopped := false
	defer func() {
		if !stopped {
			h.stop()
		}
	}()

	for _, pid := range h.pids() {
		if err := resetPeakRSS(pid); err != nil {
			notef("note: cannot reset the herd's peak RSS count, so peak_rss_mb includes set-up: %v", err)
		}
	}
	c0, err := h.counters(r.client)
	if err != nil {
		return nil, err
	}
	var procCPU0 float64
	for _, pid := range h.pids() {
		procCPU0 += procCPUSeconds(pid)
	}
	h0, self0 := readHostCPU(), cpuNow().Seconds()

	// The open loop: arrival i is due at start + i/rate, whatever the
	// herd has done with earlier ones.
	ops := make([]*herdOp, arrivals)
	period := time.Duration(float64(time.Second) / rc.Rate)
	start := time.Now().Add(10 * time.Millisecond)
	octx, ocancel := context.WithDeadline(context.Background(), start.Add(rc.Window+herdSettle))
	defer ocancel()
	var wg sync.WaitGroup
	for i := range ops {
		o := &herdOp{
			spec:   plan.specs[i],
			hit:    plan.hit[i],
			traced: rc.Traced && (i/10)%2 == 0,
			due:    start.Add(time.Duration(i) * period),
		}
		if o.traced {
			o.jt = &jobTrace{t0: o.due}
		}
		ops[i] = o
		time.Sleep(time.Until(o.due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.run(octx, r.client, h.gwURL)
		}()
	}
	wg.Wait()
	steal, selfCPU := stealFrac(h0, readHostCPU()), cpuNow().Seconds()-self0
	noteHost(steal)

	c1, err := h.counters(r.client)
	if err != nil {
		return nil, err
	}
	var procCPU, rss float64
	for _, pid := range h.pids() {
		procCPU += procCPUSeconds(pid)
		mb, err := peakRSSMB(pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	procCPU -= procCPU0
	var gwOverhead float64
	if rc.Traced {
		if gwOverhead, err = r.gatewayOverhead(ops); err != nil {
			return nil, err
		}
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	for _, o := range ops {
		if o.err == nil {
			if o.result, err = fetchResult(rctx, r.client, h.gwURL, o.status.ID); err != nil {
				o.err = err
			}
		}
	}
	stopped = true
	if err := h.stop(); err != nil {
		return nil, err
	}

	failed := r.verify(ops)
	m := metricSet{}
	var lat []float64
	var first, last time.Time
	sloOK := 0
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.latency()))
		if o.latency() <= herdSLO {
			sloOK++
		}
		if first.IsZero() || o.due.Before(first) {
			first = o.due
		}
		if o.observed.After(last) {
			last = o.observed
		}
	}
	m.set("setup_s", setup)
	m.set("job_ms_p50", median(lat))
	m.set("job_ms_tail", herdTail(lat))
	m.set("jobs_per_s", ratio(float64(len(lat)), last.Sub(first).Seconds()))
	m.set("ok_frac", ratio(float64(arrivals-failed), float64(arrivals)))
	m.set("slo_ok_frac", ratio(float64(sloOK), float64(arrivals)))
	m.set("peak_rss_mb", rss)
	res := &result{Correct: failed == 0, Attempted: arrivals, Failed: failed, Metrics: m}
	if !rc.Traced {
		return res, nil
	}
	lm, err := herdLayers(ops, c0, c1)
	if err != nil {
		return nil, err
	}
	lm.set("gateway.overhead_ms", gwOverhead)
	lm.set("host.steal_frac", steal)
	lm.set("proc.cpu_s_per_job", ratio(procCPU+selfCPU, float64(arrivals)))
	res.Metrics = lm
	return res, nil
}

// herdTail is job_ms_tail on herd-mixed: the median over the window's
// herdTailSegments consecutive segments of each segment's highest
// percentile with 10 arrivals beyond it (p93 of 150 in a 30 s run). A
// burst of hypervisor steal that slows the arrivals of a few seconds
// moves one segment's tail, not the median. The same p96 over thirds of
// the window read 30.2 ms in one run of a seed and 18.7 ms in the next.
func herdTail(lat []float64) float64 {
	var tails []float64
	for k := 0; k < herdTailSegments; k++ {
		seg := lat[k*len(lat)/herdTailSegments : (k+1)*len(lat)/herdTailSegments]
		// A segment of 20 or fewer settled arrivals (a short window, or
		// many failed ops) has no such percentile; it gives its median.
		p := math.Max(0.5, 1-10/float64(len(seg)))
		tails = append(tails, tail(fmt.Sprintf("segment %d of job_ms", k+1), seg, p))
	}
	return median(tails)
}

// herdTailSegments is how many consecutive segments herdTail cuts the
// window's arrivals into.
const herdTailSegments = 5

// gatewayOverhead times status reads of finished jobs through the
// gateway and directly at the owning backend (the id's @node suffix),
// alternating which goes first, and returns the difference of medians.
func (r *herdRun) gatewayOverhead(ops []*herdOp) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var viaGW, direct []float64
	for _, o := range ops {
		if len(viaGW) == herdOverheadProbes {
			break
		}
		id, node, ok := strings.Cut(o.status.ID, "@")
		if o.err != nil || !ok {
			continue
		}
		var st jobStatus
		read := func(url string, into *[]float64) error {
			t0 := time.Now()
			err := getJSON(ctx, r.client, url, &st)
			*into = append(*into, ms(time.Since(t0)))
			return err
		}
		gw := func() error { return read(r.h.gwURL+"/v1/jobs/"+o.status.ID, &viaGW) }
		dir := func() error { return read(r.h.nodeURL[node]+"/v1/jobs/"+id, &direct) }
		first, second := gw, dir
		if len(viaGW)%2 == 1 {
			first, second = dir, gw
		}
		if err := first(); err != nil {
			return 0, err
		}
		if err := second(); err != nil {
			return 0, err
		}
	}
	return median(viaGW) - median(direct), nil
}

// verify recomputes every distinct spec in process and checks each
// op's result against it; a hit must also equal the hot spec's fresh
// result from set-up. It marks each failed op and returns their number.
func (r *herdRun) verify(ops []*herdOp) int {
	want := map[herdSpec][]byte{}
	for _, s := range r.plan.hot {
		want[s] = nil
	}
	for _, o := range ops {
		if o.err == nil {
			want[o.spec] = nil
		}
	}
	var specs []herdSpec
	for s := range want {
		specs = append(specs, s)
	}
	// Two workers: the host has two CPUs and the herd is stopped.
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan herdSpec)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				b, err := expectedResult(s)
				if err != nil {
					notef("recomputing %+v: %v", s, err)
				}
				mu.Lock()
				want[s] = b
				mu.Unlock()
			}
		}()
	}
	for _, s := range specs {
		next <- s
	}
	close(next)
	wg.Wait()

	hotOK := make([]bool, len(r.plan.hot))
	for i, s := range r.plan.hot {
		got, err := canonicalResult(s, r.hotResult[i])
		hotOK[i] = err == nil && want[s] != nil && bytes.Equal(got, want[s])
		if !hotOK[i] {
			notef("FAIL hot spec %+v: herd result differs from the in-process result (%v)", s, err)
		}
	}
	failed := 0
	for i, o := range ops {
		switch {
		case o.err != nil:
		case o.hit && !hotOK[r.plan.hotIdx[i]]:
			o.err = fmt.Errorf("cache-hit reply for %+v repeats a wrong fresh result", o.spec)
		case o.hit && !bytes.Equal(o.result, r.hotResult[r.plan.hotIdx[i]]):
			o.err = fmt.Errorf("cache-hit reply differs from the fresh result of %+v", o.spec)
		case !o.hit:
			if got, err := canonicalResult(o.spec, o.result); err != nil || want[o.spec] == nil || !bytes.Equal(got, want[o.spec]) {
				o.err = fmt.Errorf("herd result for %+v differs from the in-process result (%v)", o.spec, err)
			}
		}
		if o.err != nil {
			notef("FAIL arrival %d: %v", i, o.err)
			failed++
		}
	}
	return failed
}

// timingResult and thermalResult mirror the fields of the server's job
// results that the check compares.
type timingResult struct {
	Workload string     `json:"workload"`
	Config   string     `json:"config"`
	ClockGHz float64    `json:"clock_ghz"`
	IPC      float64    `json:"ipc"`
	IPns     float64    `json:"ipns"`
	Stats    *cpu.Stats `json:"stats"`
}

type thermalResult struct {
	Workload   string  `json:"workload"`
	Config     string  `json:"config"`
	IPC        float64 `json:"ipc"`
	DynamicW   float64 `json:"dynamic_w"`
	ClockW     float64 `json:"clock_w"`
	LeakageW   float64 `json:"leakage_w"`
	TotalW     float64 `json:"total_w"`
	PeakK      float64 `json:"peak_k"`
	Hotspot    string  `json:"hotspot"`
	HotspotK   float64 `json:"hotspot_k"`
	Iterations int     `json:"solver_iterations"`
}

// canonicalResult decodes a herd result into the compared fields and
// re-encodes them.
func canonicalResult(s herdSpec, raw []byte) ([]byte, error) {
	var v any = &timingResult{}
	if s.Kind == "thermal" {
		v = &thermalResult{}
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// expectedResult computes a spec's result in process through the
// experiments API, at the depths the server resolves the spec to.
func expectedResult(s herdSpec) ([]byte, error) {
	cfg, err := config.ByName(s.Config)
	if err != nil {
		return nil, err
	}
	opts := experiments.QuickOptions()
	opts.FastForwardInsts, opts.WarmupInsts, opts.MeasureInsts = s.Depths.FastForward, s.Depths.Warmup, s.Depths.Measure
	opts.Parallelism = 1
	r := experiments.NewRunner(opts)
	st, err := r.Simulate(cfg, s.Workload)
	if err != nil {
		return nil, err
	}
	if s.Kind == "timing" {
		return json.Marshal(timingResult{Workload: s.Workload, Config: cfg.Name, ClockGHz: cfg.ClockGHz,
			IPC: st.IPC(), IPns: st.IPns(cfg.ClockGHz), Stats: st})
	}
	b, err := r.PowerFor(cfg, s.Workload)
	if err != nil {
		return nil, err
	}
	sol, fp, err := r.SolveThermal(cfg, b)
	if err != nil {
		return nil, err
	}
	res := thermalResult{Workload: s.Workload, Config: cfg.Name, IPC: st.IPC(), DynamicW: b.DynamicW,
		ClockW: b.ClockW, LeakageW: b.LeakageW, TotalW: b.TotalW, Iterations: sol.Iterations}
	res.PeakK, _, _, _ = sol.Peak()
	if u, t, ok := thermal.HottestUnit(sol, fp); ok {
		res.Hotspot, res.HotspotK = u.Block.String(), t
	}
	return json.Marshal(res)
}

// parseStamp parses a server timestamp.
func parseStamp(s string) (time.Time, error) { return time.Parse(time.RFC3339Nano, s) }

// herdLayers derives the per-layer metrics from the traced arrivals and
// the counter deltas, and checks each traced arrival's client spans:
// one late, one submit and one poll per status read the arrival counted,
// in order and not overlapping, covering the job span (due to first
// terminal observation) but for at most maxResidual. A dropped or
// doubled span fails the count, a doubled one also the overlap check,
// and a span timed short leaves the job uncovered, which fails the run
// when it holds for more than a tenth of the traced arrivals (see
// coverage). Each poll is timed on its own, so the sum does not reduce
// to an identity of stamps. The
// server's stamps of a fresh job must also fall in order inside the
// client's timeline: sent <= submitted <= started <= finished <=
// observed.
func herdLayers(ops []*herdOp, c0, c1 counters) (metricSet, error) {
	m := newLayerSet()
	var submitMS, queueMS, execMS, observeMS, lateMS, tracedMS, untracedMS []float64
	var polls, retries float64
	var maxRes time.Duration
	var cov coverage
	for i, o := range ops {
		polls += float64(o.polls)
		retries += float64(o.retries)
		if o.err != nil {
			continue
		}
		if !o.traced {
			untracedMS = append(untracedMS, ms(o.latency()))
			continue
		}
		tracedMS = append(tracedMS, ms(o.latency()))
		if o.sent.IsZero() {
			return nil, fmt.Errorf("arrival %d: no connection was traced", i)
		}
		want := []string{"late", "submit"}
		for k := 0; k < o.polls; k++ {
			want = append(want, "poll")
		}
		if err := o.jt.check(want); err != nil {
			return nil, fmt.Errorf("arrival %d: %w", i, err)
		}
		cov.add(o.jt)
		if r := o.jt.residual(); r > maxRes {
			maxRes = r
		}
		lateMS = append(lateMS, ms(o.jt.dur("late")))
		if o.retries == 0 {
			submitMS = append(submitMS, ms(o.jt.dur("submit")))
		}
		if o.hit || o.retries > 0 {
			continue
		}
		a, err1 := parseStamp(o.status.SubmittedAt)
		b, err2 := parseStamp(o.status.StartedAt)
		f, err3 := parseStamp(o.status.FinishedAt)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("arrival %d: unreadable status timestamps %+v", i, o.status)
		}
		queue, exec, observe := b.Sub(a), f.Sub(b), o.observed.Sub(f)
		for _, d := range []time.Duration{a.Sub(o.sent), queue, exec, observe} {
			if d < -herdEpsilon {
				return nil, fmt.Errorf("arrival %d: server stamps out of order (sent %v, submitted %v, started %v, finished %v, observed %v)",
					i, o.sent, a, b, f, o.observed)
			}
		}
		queueMS = append(queueMS, ms(queue))
		execMS = append(execMS, ms(exec))
		observeMS = append(observeMS, ms(observe))
	}
	if err := cov.err(); err != nil {
		return nil, err
	}
	n := float64(len(ops))
	m.set("gateway.submit_ms_p50", median(submitMS))
	m.set("gateway.submit_ms_p99", quantile(submitMS, 0.99))
	m.set("gateway.forward_retries_per_job", ratio(c1.retries-c0.retries, n))
	m.set("server.queue_ms_p50", median(queueMS))
	m.set("server.queue_ms_p99", quantile(queueMS, 0.99))
	m.set("server.exec_ms_p50", median(execMS))
	hits, completed := c1.hits-c0.hits, c1.completed-c0.completed
	m.set("server.cache_hits", hits)
	m.set("server.jobs_done", hits+completed)
	m.set("server.cache_hit_frac", ratio(hits, hits+completed))
	m.set("journal.appends_per_job", ratio(c1.appends-c0.appends, n))
	m.set("journal.fsyncs_per_job", ratio(c1.fsyncs-c0.fsyncs, n))
	m.set("repl.streamed_per_job", ratio(c1.streamed-c0.streamed, n))
	m.set("herd.observe_ms_p50", median(observeMS))
	m.set("herd.polls_per_job", ratio(polls, n))
	m.set("herd.retries_frac", ratio(retries, n))
	m.set("gen.lateness_ms_p99", quantile(lateMS, 0.99))
	m.set("tracing.overhead_ms", median(tracedMS)-median(untracedMS))
	m.set("tracing.residual_ms_max", ms(maxRes))
	return m, nil
}
