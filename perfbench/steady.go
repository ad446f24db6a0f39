package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadySet is the output of "steady": each workload's metric values,
// one per seed.
type steadySet map[string]map[string][]float64

// pyQuartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func pyQuartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (med, q1, q3, sp float64) {
	q := pyQuartiles(xs)
	return q[1], q[0], q[2], ratio(q[2]-q[0], q[1])
}

// steadyMain runs each workload over several seeds, prints each
// metric's median, quartiles and spread against its bound, and writes
// the values for "compare".
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	names := fs.String("workloads", "", "comma-separated workloads (default: all in the spec)")
	seeds := fs.Int("seeds", 10, "runs per workload, one seed each")
	seed0 := fs.Int64("seed0", 1, "first seed")
	seconds := fs.Int("seconds", 0, "window per run (default: the spec's run_seconds)")
	traced := fs.Int("trace", 0, "run traced (1) instead of untraced (0)")
	out := fs.String("out", "", "write the values here as JSON")
	fs.Parse(args)

	spec, err := loadBenchSpec(specPath)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var wls []string
	if *names != "" {
		wls = strings.Split(*names, ",")
	} else {
		for _, w := range spec.Workloads {
			wls = append(wls, w.Name)
		}
	}
	set := steadySet{}
	for _, wl := range wls {
		set[wl] = map[string][]float64{}
		for i := 0; i < *seeds; i++ {
			seed := *seed0 + int64(i)
			res, err := runChild(wl, seed, *seconds, *traced)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			for name, m := range res.Metrics {
				set[wl][name] = append(set[wl][name], m.Value)
			}
			notef("steady: %s seed %d done", wl, seed)
		}
	}
	printSet(spec, set)
	if *out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	return nil
}

// runChild runs this program once and parses its result line.
func runChild(wl string, seed int64, seconds, traced int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line %q: %w", last, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported wrong results")
	}
	return &res, nil
}

// bounds maps each end-to-end metric to its entry in BENCHMARK.json.
func bounds(spec *benchSpec) map[string]e2eSpec {
	b := map[string]e2eSpec{}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func printSet(spec *benchSpec, set steadySet) {
	bs := bounds(spec)
	for _, wl := range sortedKeys(set) {
		fmt.Printf("%s\n", wl)
		fmt.Printf("  %-32s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, name := range sortedKeys(set[wl]) {
			med, q1, q3, sp := spread(set[wl][name])
			bound := "-"
			if b, ok := bs[name]; ok {
				bound = fmt.Sprintf("%.3f", b.Bound)
			}
			fmt.Printf("  %-32s %12.4f %12.4f %12.4f %8.3f %8s\n", name, med, q1, q3, sp, bound)
		}
	}
}

// compareMain checks two steady sets of the same code against the
// bounds: every end-to-end spread but setup_s's within its bound, and
// the two medians apart by no more than the bound, in either direction —
// a set that is much better is as much a sign of an unsteady benchmark
// as one that is much worse. setup_s's spread is reported but not held
// to the bound: herd-mixed sets up in about 0.1 s of wall time over
// three process starts, and host phases spread that by up to 0.28 over
// 10 seeds. Its medians are compared.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare first.json second.json")
	}
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2]steadySet
	for i := range sets {
		b, err := os.ReadFile(fs.Arg(i))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
	}
	var bad []string
	bs := bounds(spec)
	for _, wl := range sortedKeys(sets[0]) {
		for _, name := range sortedKeys(bs) {
			b := bs[name]
			a, c := sets[0][wl][name], sets[1][wl][name]
			if len(a) == 0 || len(c) == 0 {
				bad = append(bad, fmt.Sprintf("%s %s: missing", wl, name))
				continue
			}
			ma, _, _, sa := spread(a)
			mc, _, _, sc := spread(c)
			moved := ratio(mc-ma, ma)
			verdict := "ok"
			if name != "setup_s" && (sa > b.Bound || sc > b.Bound) {
				verdict = "SPREAD"
			}
			if math.Abs(moved) > b.Bound {
				verdict = "MOVED"
			}
			if verdict != "ok" {
				bad = append(bad, wl+" "+name)
			}
			fmt.Printf("%-16s %-14s spread %.3f/%.3f  median %.4f -> %.4f (%+.3f)  bound %.3f  %s\n",
				wl, name, sa, sc, ma, mc, moved, b.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("outside the bounds: %s", strings.Join(bad, "; "))
	}
	return nil
}
