package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cc"
)

// smallCorpus builds a reduced corpus (few programs, few configs) for
// test-speed; the full corpus is exercised by cmd/surieval and benches.
func smallCorpus(t *testing.T, host string, everyNth int) []Case {
	t.Helper()
	configs := ConfigsFor(host)
	var reduced []cc.Config
	for i, c := range configs {
		if i%everyNth == 0 {
			reduced = append(reduced, c)
		}
	}
	cases, err := BuildCorpus(0.03, reduced)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestTable2Shape is the headline reproduction check: SURI must complete
// and pass everything; Ddisasm must complete less or pass less.
func TestTable2Shape(t *testing.T) {
	cases := smallCorpus(t, "ubuntu20.04", 4)
	rows := ReliabilityTable(context.Background(), cases, Ddisasm(), false, nil, nil)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	out := FormatReliability("Table 2", "Ddisasm", rows)
	t.Logf("\n%s", out)

	var suriWorse, ddisasmPerfect bool
	for _, r := range rows {
		if r.SURI.Fin() != 100 {
			t.Errorf("%s/%s: SURI completion %.1f%%, want 100%%", r.Suite, r.Compiler, r.SURI.Fin())
		}
		if r.SURI.Tests != r.SURI.TestsPassed {
			t.Errorf("%s/%s: SURI failed %d tests", r.Suite, r.Compiler, r.SURI.Tests-r.SURI.TestsPassed)
			suriWorse = true
		}
		if r.Other.Fin() == 100 && r.Other.Tests == r.Other.TestsPassed {
			ddisasmPerfect = true
		} else {
			ddisasmPerfect = false
		}
	}
	_ = suriWorse
	// Ddisasm must show failures somewhere in the corpus.
	allPerfect := true
	for _, r := range rows {
		if r.Other.Fin() < 100 || r.Other.TestsPassed < r.Other.Tests {
			allPerfect = false
		}
	}
	if allPerfect {
		t.Error("Ddisasm-like tool showed no failures; the comparison would be vacuous")
	}
	_ = ddisasmPerfect
	if !strings.Contains(out, "SURI") {
		t.Error("formatting broken")
	}
}

func TestTable3Shape(t *testing.T) {
	cases := smallCorpus(t, "ubuntu18.04", 4)
	rows := ReliabilityTable(context.Background(), cases, Egalito(), true, nil, nil)
	out := FormatReliability("Table 3", "Egalito", rows)
	t.Logf("\n%s", out)
	for _, r := range rows {
		if r.SURI.Fin() != 100 || r.SURI.TestsPassed != r.SURI.Tests {
			t.Errorf("%s/%s: SURI not perfect", r.Suite, r.Compiler)
		}
	}
	anyFail := false
	for _, r := range rows {
		if r.Other.Fin() < 100 || r.Other.TestsPassed < r.Other.Tests {
			anyFail = true
		}
	}
	if !anyFail {
		t.Error("Egalito-like tool showed no failures")
	}
}

func TestTable4Shape(t *testing.T) {
	cases := smallCorpus(t, "ubuntu20.04", 5)
	rows := OverheadTable(context.Background(), cases, []baseline.Rewriter{SURI(), Ddisasm()}, nil)
	t.Logf("\n%s", FormatOverhead(rows))
	suriSeen := false
	for _, r := range rows {
		if r.Tool == "suri" && r.Binaries > 0 {
			suriSeen = true
			if r.Overhead < 0 || r.Overhead > 25 {
				t.Errorf("%s/%s overhead %.2f%% implausible", r.Suite, r.Tool, r.Overhead)
			}
		}
	}
	if !suriSeen {
		t.Error("no SURI overhead measured")
	}
}

func TestInstrumentationStats(t *testing.T) {
	cases := smallCorpus(t, "ubuntu20.04", 8)
	st, err := MeasureInstrumentation(context.Background(), cases, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("§4.3.1: added instr %.2f%%, if-then-else %.2f%%, extra entries %.2f%%, code ptrs %d over %d binaries",
		st.AddedInstrPct, st.IfThenElsePct, st.ExtraEntriesPct, st.CodePointers, st.Binaries)
	if st.AddedInstrPct <= 0 || st.AddedInstrPct > 50 {
		t.Errorf("added-instruction percentage %.2f implausible", st.AddedInstrPct)
	}
	if st.ExtraEntriesPct < 0 {
		t.Errorf("over-approximation removed entries? %.2f%%", st.ExtraEntriesPct)
	}
	if st.CodePointers == 0 {
		t.Error("no code pointers audited")
	}
}

func TestCFIImpact(t *testing.T) {
	cases := smallCorpus(t, "ubuntu20.04", 11)
	imp, err := MeasureCFIImpact(cases)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("§4.3.3: CFI speedup %.2fx, extra instructions %.2f%%, overhead %.2f%% vs %.2f%%",
		imp.SpeedupWithCFI, imp.ExtraInstrPct, imp.OverheadWithPct, imp.OverheadNoCFIPct)
	if imp.ExtraInstrPct < -1 {
		t.Errorf("graph shrank materially without CFI: %.2f%%", imp.ExtraInstrPct)
	}
}

func TestTable5(t *testing.T) {
	ours, basan, asan, err := Table5(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatTable5(ours, basan, asan))
	if ours.FP != 0 {
		t.Errorf("ours has %d false positives", ours.FP)
	}
	if asan.TP < ours.TP || ours.TP < basan.TP {
		t.Errorf("detection ordering violated: asan %d, ours %d, basan %d", asan.TP, ours.TP, basan.TP)
	}
}

func TestConfigsFor(t *testing.T) {
	if n := len(ConfigsFor("all")); n != 48 {
		t.Errorf("all configs = %d, want 48", n)
	}
	if n := len(ConfigsFor("ubuntu18.04")); n != 24 {
		t.Errorf("18.04 configs = %d, want 24", n)
	}
}
