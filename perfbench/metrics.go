package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// e2eUnits are the end-to-end metrics every workload reports untraced.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"job_ms_p50":  "ms",
	"job_ms_tail": "ms",
	"jobs_per_s":  "1/s",
	"ok_frac":     "frac",
	"slo_ok_frac": "frac",
	"peak_rss_mb": "MB",
}

// layerUnits are the per-layer metrics every workload reports traced. A
// layer the workload does not call in the benchmark process reads 0.
var layerUnits = map[string]string{
	"cpu.ff_ns_per_inst":              "ns",
	"cpu.cycle_ns_per_inst":           "ns",
	"cpu.allocs_per_inst":             "count",
	"cpu.bytes_per_inst":              "B",
	"cpu.new_ms":                      "ms",
	"cpu.sim_cpi":                     "cycles",
	"gc.pause_ms_per_job":             "ms",
	"trace.next_ns":                   "ns",
	"trace.insts_per_job":             "count",
	"power.compute_us":                "us",
	"thermal.build_ms":                "ms",
	"thermal.solve_ms":                "ms",
	"thermal.sweeps_per_solve":        "count",
	"thermal.transient_ms":            "ms",
	"experiments.leakage_ms":          "ms",
	"experiments.leakage_solves":      "count",
	"experiments.density_ms":          "ms",
	"gateway.submit_ms_p50":           "ms",
	"gateway.submit_ms_p99":           "ms",
	"gateway.overhead_ms":             "ms",
	"gateway.forward_retries_per_job": "count",
	"server.queue_ms_p50":             "ms",
	"server.queue_ms_p99":             "ms",
	"server.exec_ms_p50":              "ms",
	"server.cache_hit_frac":           "frac",
	"server.cache_hits":               "count",
	"server.jobs_done":                "count",
	"journal.appends_per_job":         "count",
	"journal.fsyncs_per_job":          "count",
	"repl.streamed_per_job":           "count",
	"herd.observe_ms_p50":             "ms",
	"herd.polls_per_job":              "count",
	"herd.retries_frac":               "frac",
	"gen.lateness_ms_p99":             "ms",
	"host.steal_frac":                 "frac",
	"proc.cpu_s_per_job":              "s",
	"tracing.overhead_ms":             "ms",
	"tracing.residual_ms_max":         "ms",
}

// metricSet collects a run's metrics by name, with units from the
// tables above.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := e2eUnits[name]
	if !ok {
		u, ok = layerUnits[name]
	}
	if !ok {
		panic("unregistered metric " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// newLayerSet returns every per-layer metric at 0.
func newLayerSet() metricSet {
	m := metricSet{}
	for name := range layerUnits {
		m.set(name, 0)
	}
	return m
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against and the steady tools read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []e2eSpec `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// e2eSpec is one end-to-end metric of BENCHMARK.json.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkAgainstSpec fails unless the metrics are exactly the ones
// BENCHMARK.json lists for this kind of run, with the same units.
func checkAgainstSpec(spec *benchSpec, traced bool, got metricSet) error {
	want := map[string]string{}
	if traced {
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	var bad []string
	for name, u := range want {
		if g, ok := got[name]; !ok || g.Unit != u {
			bad = append(bad, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics disagree with BENCHMARK.json on %v", bad)
	}
	return nil
}
