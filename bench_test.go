// Benchmarks regenerating every table of the paper's evaluation, plus
// two profiling entry points (a rewrite and a tiered emulator run).
// Each table bench rebuilds its (scaled-down) corpus outside the timer
// and reports the reproduced headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows EXPERIMENTS.md records. Run cmd/surieval for the
// pretty-printed full tables (and -full for the paper-sized corpus).
package suri_test

import (
	"context"
	"testing"

	suri "repro"
	"repro/internal/baseline"
	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/eval"
	"repro/internal/prog"
)

// benchCorpus builds a small deterministic corpus once.
func benchCorpus(b *testing.B, host string, nth int) []eval.Case {
	b.Helper()
	configs := eval.ConfigsFor(host)
	var reduced []cc.Config
	for i, c := range configs {
		if i%nth == 0 {
			reduced = append(reduced, c)
		}
	}
	cases, err := eval.BuildCorpus(0.03, reduced)
	if err != nil {
		b.Fatal(err)
	}
	return cases
}

// BenchmarkTable1SymbolTaxonomy compiles one program across all 48 build
// configurations — the corpus construction that feeds Table 1's taxonomy.
func BenchmarkTable1SymbolTaxonomy(b *testing.B) {
	p := prog.Generate("t1", 3, prog.Shape{Funcs: 4, Switches: 2, Globals: 5, MainLoop: 8, Stmts: 6, NumInputs: 1})
	cfgs := cc.AllConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			if _, err := cc.Compile(p.Module, c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkTable2VsDdisasm regenerates Table 2's comparison rows.
func BenchmarkTable2VsDdisasm(b *testing.B) {
	cases := benchCorpus(b, "ubuntu20.04", 8)
	b.ResetTimer()
	var rows []eval.Row
	for i := 0; i < b.N; i++ {
		rows = eval.ReliabilityTable(context.Background(), cases, eval.Ddisasm(), false, nil, nil)
	}
	b.StopTimer()
	var sFin, dFin, sPassed, sTests, dPassed, dTests float64
	for _, r := range rows {
		sFin += r.SURI.Fin()
		dFin += r.Other.Fin()
		sPassed += float64(r.SURI.TestsPassed)
		sTests += float64(r.SURI.Tests)
		dPassed += float64(r.Other.TestsPassed)
		dTests += float64(r.Other.Tests)
	}
	n := float64(len(rows))
	b.ReportMetric(sFin/n, "suri-fin%")
	b.ReportMetric(dFin/n, "ddisasm-fin%")
	b.ReportMetric(100*sPassed/sTests, "suri-pass%")
	b.ReportMetric(100*dPassed/dTests, "ddisasm-pass%")
}

// BenchmarkTable3VsEgalito regenerates Table 3's comparison rows.
func BenchmarkTable3VsEgalito(b *testing.B) {
	cases := benchCorpus(b, "ubuntu18.04", 8)
	b.ResetTimer()
	var rows []eval.Row
	for i := 0; i < b.N; i++ {
		rows = eval.ReliabilityTable(context.Background(), cases, eval.Egalito(), true, nil, nil)
	}
	b.StopTimer()
	var sPassed, sTests, ePassed, eTests float64
	for _, r := range rows {
		sPassed += float64(r.SURI.TestsPassed)
		sTests += float64(r.SURI.Tests)
		ePassed += float64(r.Other.TestsPassed)
		eTests += float64(r.Other.Tests)
	}
	if sTests > 0 {
		b.ReportMetric(100*sPassed/sTests, "suri-pass%")
	}
	if eTests > 0 {
		b.ReportMetric(100*ePassed/eTests, "egalito-pass%")
	}
}

// BenchmarkTable4Overhead regenerates Table 4 (rewritten-binary runtime
// overhead at -O3, in retired instructions).
func BenchmarkTable4Overhead(b *testing.B) {
	cases := benchCorpus(b, "all", 5)
	b.ResetTimer()
	var rows []eval.OverheadRow
	for i := 0; i < b.N; i++ {
		rows = eval.OverheadTable(context.Background(), cases, []baseline.Rewriter{eval.SURI()}, nil)
	}
	b.StopTimer()
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Binaries > 0 {
			sum += r.Overhead
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "suri-overhead%")
	}
}

// BenchmarkSymbolDistribution covers §4.2.4: the endbr64 code-pointer
// audit across the corpus.
func BenchmarkSymbolDistribution(b *testing.B) {
	cases := benchCorpus(b, "ubuntu20.04", 12)
	b.ResetTimer()
	var st eval.InstrumentationStats
	var err error
	for i := 0; i < b.N; i++ {
		st, err = eval.MeasureInstrumentation(context.Background(), cases, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.CodePointers), "code-pointers")
}

// BenchmarkInstrumentationStats covers §4.3.1: added instructions,
// if-then-else dispatch fixes, extra jump-table entries.
func BenchmarkInstrumentationStats(b *testing.B) {
	cases := benchCorpus(b, "ubuntu20.04", 8)
	b.ResetTimer()
	var st eval.InstrumentationStats
	var err error
	for i := 0; i < b.N; i++ {
		st, err = eval.MeasureInstrumentation(context.Background(), cases, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.AddedInstrPct, "added-instr%")
	b.ReportMetric(st.IfThenElsePct, "if-then-else%")
	b.ReportMetric(st.ExtraEntriesPct, "extra-entries%")
}

// BenchmarkTable433CallFrameInfo covers §4.3.3: the with/without unwind
// info ablation.
func BenchmarkTable433CallFrameInfo(b *testing.B) {
	cases := benchCorpus(b, "ubuntu20.04", 16)
	b.ResetTimer()
	var imp eval.CFIImpact
	var err error
	for i := 0; i < b.N; i++ {
		imp, err = eval.MeasureCFIImpact(cases)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(imp.SpeedupWithCFI, "cfi-speedup-x")
	b.ReportMetric(imp.OverheadWithPct, "overhead-cfi%")
	b.ReportMetric(imp.OverheadNoCFIPct, "overhead-nocfi%")
}

// BenchmarkTable5Juliet regenerates Table 5's detection study.
func BenchmarkTable5Juliet(b *testing.B) {
	b.ResetTimer()
	var oursTP, basanTP, asanTP int
	for i := 0; i < b.N; i++ {
		ours, basan, asan, err := eval.Table5(2025, 4)
		if err != nil {
			b.Fatal(err)
		}
		oursTP, basanTP, asanTP = ours.TP, basan.TP, asan.TP
	}
	b.ReportMetric(float64(oursTP), "ours-TP")
	b.ReportMetric(float64(basanTP), "basan-TP")
	b.ReportMetric(float64(asanTP), "asan-TP")
}

// BenchmarkRewrite measures raw pipeline throughput on one binary.
func BenchmarkRewrite(b *testing.B) {
	p := prog.Generate("bench", 9, prog.Shape{Funcs: 6, Switches: 2, Globals: 6, MainLoop: 16, Stmts: 8, NumInputs: 1})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suri.Rewrite(bin, suri.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulatorHotTiered runs a compute-heavy module (~7M retired
// instructions per run, so execution dwarfs load and parse) on the
// tiered superblock engine: the profiling entry point for the engine's
// run loop.
func BenchmarkEmulatorHotTiered(b *testing.B) {
	p := prog.Generate("bench_hot", 11, prog.Shape{Funcs: 8, Switches: 3, Globals: 8, MainLoop: 2048, Stmts: 12, NumInputs: 1})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := emu.Run(bin, emu.Options{Engine: emu.EngineTiered})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.StopTimer()
	b.ReportMetric(float64(steps)/float64(b.N), "instructions/op")
}
