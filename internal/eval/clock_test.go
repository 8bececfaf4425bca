package eval

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

// TestFakeClockDeterministicTiming: with an injected FakeClock, the
// rewriting-time column of RunTool is an exact function of the case
// count — every case costs exactly one clock step — and two runs over
// the same corpus report identical times.
func TestFakeClockDeterministicTiming(t *testing.T) {
	cases := smallCorpus(t, "intel", 4)
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}

	const stepNs = 250_000 // 0.25ms per clock reading
	SetClock(&obs.FakeClock{Step: stepNs})
	defer SetClock(nil)

	st := RunTool(context.Background(), SURI(), cases, nil, nil)
	// Each case reads the clock twice (start, stop) one step apart; the
	// column accumulates in float64, so allow rounding slop.
	want := float64(len(cases)) * stepNs / 1e9
	if math.Abs(st.TimeSec-want) > 1e-9 {
		t.Errorf("TimeSec = %v, want %v for %d cases", st.TimeSec, want, len(cases))
	}

	SetClock(&obs.FakeClock{Step: stepNs})
	st2 := RunTool(context.Background(), SURI(), cases, nil, nil)
	if st2.TimeSec != st.TimeSec {
		t.Errorf("timing not reproducible: %v vs %v", st.TimeSec, st2.TimeSec)
	}
}

// TestSetClockNilRestoresSystemClock: after SetClock(nil), time moves
// again (monotonic readings strictly increase).
func TestSetClockNilRestoresSystemClock(t *testing.T) {
	SetClock(&obs.FakeClock{})
	SetClock(nil)
	a := clock.Now()
	b := clock.Now()
	if b < a {
		t.Errorf("system clock went backwards: %d then %d", a, b)
	}
	if _, ok := clock.(*obs.FakeClock); ok {
		t.Error("SetClock(nil) left the fake clock installed")
	}
}

// TestRunToolObsMetrics: with a collector, RunTool's per-tool counters
// and histogram must agree with the returned ToolStats.
func TestRunToolObsMetrics(t *testing.T) {
	cases := smallCorpus(t, "intel", 4)
	SetClock(&obs.FakeClock{Step: 1000})
	defer SetClock(nil)

	col := obs.NewWithClock(&obs.FakeClock{Step: 1})
	st := RunTool(context.Background(), SURI(), cases, col, nil)

	snap := col.Metrics().Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["eval.suri.cases"] != int64(st.Cases) {
		t.Errorf("cases counter = %d, stats say %d", counters["eval.suri.cases"], st.Cases)
	}
	if counters["eval.suri.tests_passed"] != int64(st.TestsPassed) {
		t.Errorf("tests_passed counter = %d, stats say %d", counters["eval.suri.tests_passed"], st.TestsPassed)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != int64(st.Cases) {
		t.Fatalf("rewrite_us histogram should have one entry per case: %+v", snap.Histograms)
	}
	roots := col.Trace().Roots()
	if len(roots) != 1 || roots[0].Name != "run:suri" {
		t.Fatalf("expected a single run:suri span, got %v", roots)
	}
}
