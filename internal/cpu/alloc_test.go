package cpu

import (
	"runtime"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/trace"
)

// simAllocs counts the heap allocations of Warmup and Run over n
// instructions, half each, on a fresh core fed by the workload's
// generator.
func simAllocs(t *testing.T, cfg config.Machine, workload string, n uint64) uint64 {
	t.Helper()
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.Warmup(n / 2)
	c.Run(n / 2)
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestSimulationAllocsDoNotGrowWithLength pins the allocation-free
// steady state of the front end and the scheduler: the fetch queue
// ring, the waiting list, the completion heap and the generator's
// producer window. Ten times the instructions may cost only a few more
// allocations, the one-off growth of maps and stacks that reach their
// working size late.
func TestSimulationAllocsDoNotGrowWithLength(t *testing.T) {
	const slack = 8
	for _, workload := range []string{"mcf", "mpeg2enc"} {
		short := simAllocs(t, config.ThreeD(), workload, 10_000)
		long := simAllocs(t, config.ThreeD(), workload, 100_000)
		if long > short+slack {
			t.Errorf("%s: %d allocations over 100k instructions, %d over 10k; want at most %d more",
				workload, long, short, slack)
		}
	}
}
