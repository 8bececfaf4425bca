package eval

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/farm"
	"repro/internal/obs"
)

// zeroClock is a read-only time source. obs.FakeClock advances internal
// state on every Now() and so races when the parallel path reads time
// from many workers; this one is safe to share and pins every duration
// to zero, which is exactly what byte-comparing table text needs.
type zeroClock struct{}

func (zeroClock) Now() int64 { return 0 }

// TestFarmReliabilityDeterminism is the `-j` determinism guard: the
// parallel table path (surieval -table 2 -j 8) must emit byte-identical
// text to the sequential run, whatever order jobs complete in.
func TestFarmReliabilityDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a corpus")
	}
	SetClock(zeroClock{})
	defer SetClock(nil)

	cases, err := BuildCorpus(0.05, ConfigsFor("ubuntu20.04")[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 8 {
		t.Fatalf("corpus too small to exercise parallelism: %d cases", len(cases))
	}

	seq := FormatReliability("Table 2", "ddisasm",
		ReliabilityTable(context.Background(), cases, Ddisasm(), false, nil, nil))

	for _, workers := range []int{2, 8} {
		pool := farm.New(farm.Config{Workers: workers, Obs: obs.New()})
		par := FormatReliability("Table 2", "ddisasm",
			ReliabilityTable(context.Background(), cases, Ddisasm(), false, nil, pool))
		pool.Close()
		if par != seq {
			t.Fatalf("-j %d table text differs from sequential run:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seq, par)
		}
	}
}

// TestFarmOverheadDeterminism: same guard for the Table 4 path, whose
// per-suite geomean folds floats — summation order must not leak.
func TestFarmOverheadDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a corpus")
	}
	cases, err := BuildCorpus(0.05, ConfigsFor("ubuntu20.04")[:1])
	if err != nil {
		t.Fatal(err)
	}
	tools := []baseline.Rewriter{SURI()}
	seq := FormatOverhead(OverheadTable(context.Background(), cases, tools, nil))
	pool := farm.New(farm.Config{Workers: 8, Obs: obs.New()})
	defer pool.Close()
	par := FormatOverhead(OverheadTable(context.Background(), cases, tools, pool))
	if par != seq {
		t.Fatalf("parallel overhead table differs:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}
