package cpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current model")

// Golden depths: short enough that every configuration × workload pair
// runs in a few seconds, long enough to fill the ROB, exercise
// mispredictions, cache misses and the non-pipelined units.
const (
	goldenFF      = 2_000
	goldenWarm    = 1_000
	goldenMeasure = 3_000
)

const goldenPath = "testdata/golden.json"

// goldenDigest is the SHA-256 of a run's Stats JSON, which covers every
// field (Go encodes floats in their shortest exact form).
func goldenDigest(t *testing.T, cfg config.Machine, name string) string {
	prof, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	c.FastForward(goldenFF)
	c.Warmup(goldenWarm)
	b, err := json.Marshal(c.Run(goldenMeasure))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenStats pins every simulated statistic of every configuration
// on every workload. A change meant only to speed the model up must
// leave it passing. A deliberate model change re-blesses the fixture
// with "go test ./internal/cpu -run Golden -update" and says why in
// CHANGES.md.
func TestGoldenStats(t *testing.T) {
	want := map[string]string{}
	if !*update {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("pairs", func(t *testing.T) {
		for _, cfg := range config.Registry() {
			for _, name := range trace.Names() {
				key := cfg.Name + "/" + name
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					d := goldenDigest(t, cfg, name)
					mu.Lock()
					got[key] = d
					mu.Unlock()
					if !*update && d != want[key] {
						t.Errorf("Stats digest %s, golden %q", d, want[key])
					}
				})
			}
		}
	})
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("ran %d pairs, golden has %d", len(got), len(want))
	}
}
