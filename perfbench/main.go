// Command perfbench is thermalherd's benchmark. It measures the
// simulator core, the thermal solver and the herd service from outside:
// the in-process workloads call the exported functions of the trace,
// cpu, power, thermal and experiments packages, and the herd workload
// drives real thermherd-gw and thermherdd processes over HTTP.
//
// Run it through run.sh from the repository root, which builds the herd
// binaries and this program first:
//
//	bash perfbench/run.sh --workload sim-quick --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
// per-layer ones. A run whose outputs are wrong prints that object with
// correct=false and exits 1; a run the benchmark itself cannot complete
// prints no object and exits 2. Host noise (steal, a late generator, a
// slow host) never fails a run: it is reported as host.steal_frac and
// gen.lateness_ms_p99 and noted on standard error.
//
// Subcommands: "regen-ref" rewrites ref.json (the reference digests of
// every job the closed loops can draw), "steady" runs workloads over
// several seeds and summarizes each metric, and "compare" checks two
// steady sets against BENCHMARK.json's bounds. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// errWrong marks a run whose outputs failed a correctness check.
var errWrong = errors.New("wrong results")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Window  time.Duration
	Traced  bool
	WorkDir string // per-run working directory, removed afterwards
	Rate    float64
}

// Paths relative to the repository root, where run.sh runs the program.
const (
	binDir   = ".bench_build/bin" // thermherdd and thermherd-gw, built by run.sh
	runsDir  = ".bench_build/runs"
	refPath  = "perfbench/ref.json"
	specPath = "BENCHMARK.json"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"sim-quick":       runSimQuick,
	"thermal-resolve": runThermalResolve,
	"herd-mixed":      runHerdMixed,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "regen-ref":
			exitOn(regenRef(os.Args[2:]))
			return
		case "steady":
			exitOn(steadyMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload: sim-quick, thermal-resolve or herd-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	rate := fs.Float64("rate", herdRate, "herd-mixed arrival rate per second, for re-measuring the knee (the recorded benchmark uses the default)")
	fs.Parse(os.Args[1:])

	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(runsDir, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{
		Seed:    *seed,
		Window:  time.Duration(*seconds) * time.Second,
		Traced:  *traced == 1,
		WorkDir: work,
		Rate:    *rate,
	}
	res, err := run(cfg)
	if errors.Is(err, errWrong) && res == nil {
		notef("%v", err)
		res = &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	}
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = fmt.Errorf("removing the run directory: %w", rerr)
	}
	if res != nil && (err == nil || errors.Is(err, errWrong)) {
		if res.Failed > 0 {
			res.Correct = false
		}
		if res.Correct {
			if err := checkAgainstSpec(spec, cfg.Traced, res.Metrics); err != nil {
				fatalf("%v", err)
			}
		}
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fatalf("encoding the result: %v", jerr)
		}
		fmt.Println(string(line))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed their correctness check\n", res.Failed, res.Attempted)
			os.Exit(1)
		}
		return
	}
	fatalf("%v", err)
}

func exitOn(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// notef writes a diagnostic line to standard error.
func notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
