package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/trace"
)

// reference is ref.json: the expected result of every job the closed
// loops can draw, plus each job's cost, which the seeded job lists are
// stratified by. A result that differs from it fails the op, so a
// change that only means to be faster cannot pass with changed
// simulated statistics. Regenerate it with "perfbench regen-ref" and
// say why in the change that does.
type reference struct {
	SimQuick []simRef     `json:"sim_quick"`
	Resolve  []resolveRef `json:"thermal_resolve"`
	Platform string       `json:"cost_platform"`
}

// simRef is one sim-quick job: a (config, trace) pair run at quick
// depth.
type simRef struct {
	Config string  `json:"config"`
	Trace  string  `json:"trace"`
	Stats  string  `json:"stats_sha256"` // statsDigest of the measured cpu.Stats
	PeakK  float64 `json:"peak_k"`       // steady peak at simGrid
	CostMS float64 `json:"cost_ms"`
}

// resolveRef is the thermal studies of one thermal-resolve trace on
// the stats its set-up pre-simulates.
type resolveRef struct {
	Trace     string                `json:"trace"`
	Stats     map[string]string     `json:"stats_sha256"`  // statsDigest of the pre-simulated cpu.Stats, by config
	Steady    map[string]float64    `json:"steady_peak_k"` // by config
	Leakage   map[string]leakageRef `json:"leakage"`       // by config
	Density   [2]float64            `json:"density_peak_k"`
	Transient float64               `json:"transient_final_peak_k"`
	CostMS    float64               `json:"cost_ms"`
}

type leakageRef struct {
	PeakK      float64 `json:"peak_k"`
	Iterations int     `json:"iterations"`
}

// statsDigest is a short SHA-256 of a cpu.Stats' JSON encoding, which
// covers every field (Go encodes floats in their shortest exact form).
func statsDigest(s *cpu.Stats) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.SimQuick) == 0 || len(r.Resolve) == 0 {
		return nil, fmt.Errorf("%s: empty reference", path)
	}
	return &r, nil
}

// resolvePool is the fixed set of traces thermal-resolve draws from:
// every ninth suite trace, which spans all benchmark groups.
func resolvePool() []string {
	var pool []string
	for i, name := range trace.Names() {
		if i%9 == 0 {
			pool = append(pool, name)
		}
	}
	return pool
}

// regenRef recomputes ref.json. Costs are host milliseconds of one run
// of each job, used only to stratify job lists.
func regenRef(args []string) error {
	fs := flag.NewFlagSet("regen-ref", flag.ExitOnError)
	platform := fs.String("platform", "", "free-text description of the host the costs were timed on")
	fs.Parse(args)

	ref := reference{Platform: *platform}
	t0 := time.Now()
	for _, cfg := range config.Registry() {
		for _, name := range trace.Names() {
			prof, err := trace.ProfileByName(name)
			if err != nil {
				return err
			}
			start := time.Now()
			o, err := runSim(cfg, prof, nil)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", cfg.Name, name, err)
			}
			cost := ms(time.Since(start))
			d, err := statsDigest(o.stats)
			if err != nil {
				return err
			}
			ref.SimQuick = append(ref.SimQuick, simRef{Config: cfg.Name, Trace: name, Stats: d, PeakK: o.peakK, CostMS: round3(cost)})
		}
		notef("regen-ref: sim-quick %s done after %v", cfg.Name, time.Since(t0).Round(time.Second))
	}
	for _, name := range resolvePool() {
		start := time.Now()
		r, err := newResolveRunner([]string{name})
		if err != nil {
			return err
		}
		rr := resolveRef{Trace: name, Stats: map[string]string{}, Steady: map[string]float64{}, Leakage: map[string]leakageRef{}}
		for _, cfg := range config.Registry() {
			st, err := r.Simulate(cfg, name)
			if err != nil {
				return err
			}
			if rr.Stats[cfg.Name], err = statsDigest(st); err != nil {
				return err
			}
		}
		for _, j := range resolveJobs(name) {
			o, err := j.run(r, nil)
			if err != nil {
				return fmt.Errorf("%s %s/%s: %w", j.study, j.cfg.Name, name, err)
			}
			o.record(&rr, j)
		}
		rr.CostMS = round3(ms(time.Since(start)))
		ref.Resolve = append(ref.Resolve, rr)
	}
	notef("regen-ref: thermal-resolve done after %v", time.Since(t0).Round(time.Second))
	sort.SliceStable(ref.SimQuick, func(i, j int) bool { return ref.SimQuick[i].CostMS < ref.SimQuick[j].CostMS })
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath, append(b, '\n'), 0o644)
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
