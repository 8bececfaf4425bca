// Benchmarks regenerating every table of the paper's evaluation, plus
// throughput benchmarks for the pipeline's stages. Each table bench
// rebuilds its (scaled-down) corpus outside the timer and reports the
// reproduced headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows EXPERIMENTS.md records. Run cmd/surieval for the
// pretty-printed full tables (and -full for the paper-sized corpus).
package suri_test

import (
	"context"
	"testing"
	"time"

	suri "repro"
	"repro/internal/baseline"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/eval"
	"repro/internal/farm"
	"repro/internal/obs"
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
		rows = eval.ReliabilityTable(cases, eval.Ddisasm(), false)
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
		rows = eval.ReliabilityTable(cases, eval.Egalito(), true)
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
		rows = eval.OverheadTable(cases, []baseline.Rewriter{eval.SURI()})
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
		st, err = eval.MeasureInstrumentation(cases)
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
		st, err = eval.MeasureInstrumentation(cases)
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

// BenchmarkSupersetCFG measures superset CFG construction alone (§3.2).
func BenchmarkSupersetCFG(b *testing.B) {
	p := prog.Generate("bench", 9, prog.Shape{Funcs: 6, Switches: 2, Globals: 6, MainLoop: 16, Stmts: 8, NumInputs: 1})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Build(f, cfg.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulator measures interpreter speed (instructions/second).
// The engine is pinned: the tiered engine is linked into this binary
// (through core's validation path), so EngineAuto would no longer
// measure the interpreter.
func BenchmarkEmulator(b *testing.B) {
	benchEmulator(b, emu.Options{Engine: emu.EngineInterpreter})
}

// BenchmarkEmulatorTiered is the same run through the tiered
// superblock engine — cold: every iteration loads a fresh machine and
// re-translates, so the rate includes translation cost. This is the
// shape core.RewriteValidated pays on its first input.
func BenchmarkEmulatorTiered(b *testing.B) {
	benchEmulator(b, emu.Options{Engine: emu.EngineTiered})
}

// benchHotBin compiles the compute-heavy engine-ladder module once:
// ~7M retired instructions per run, so execution dwarfs load/parse
// setup and insts/sec measures the engine, not the loader. (The
// standard bench module retires only ~17k instructions — fine for
// pipeline benchmarks, useless for comparing engines.)
func benchHotBin(b *testing.B) []byte {
	b.Helper()
	p := prog.Generate("bench_hot", 11, prog.Shape{Funcs: 8, Switches: 3, Globals: 8, MainLoop: 2048, Stmts: 12, NumInputs: 1})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

func benchEmulatorHot(b *testing.B, engine emu.EngineKind) {
	b.Helper()
	bin := benchHotBin(b)
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := emu.Run(bin, emu.Options{Engine: engine})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(steps)/float64(b.N), "instructions/op")
	}
}

// BenchmarkEmulatorHotInterp / BenchmarkEmulatorHotTiered are the
// engine ladder BENCH_perf.json's tiered_emulator section records:
// identical work (same instructions/op), interpreter vs tiered.
func BenchmarkEmulatorHotInterp(b *testing.B) { benchEmulatorHot(b, emu.EngineInterpreter) }
func BenchmarkEmulatorHotTiered(b *testing.B) { benchEmulatorHot(b, emu.EngineTiered) }

func benchEmulator(b *testing.B, opts emu.Options) {
	b.Helper()
	bin := benchRewriteBin(b)
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := emu.Run(bin, opts)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(steps)/float64(b.N), "instructions/op")
	}
}

// BenchmarkEmulatorTieredWarm reuses one machine across iterations via
// emu.Reload, so the translation cache stays hot — the steady state of
// a validator or fleet worker executing the same image repeatedly.
func BenchmarkEmulatorTieredWarm(b *testing.B) {
	bin := benchRewriteBin(b)
	f, err := elfx.Read(bin)
	if err != nil {
		b.Fatal(err)
	}
	opts := emu.Options{Engine: emu.EngineTiered}
	m, err := emu.LoadFile(f, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Run(); err != nil { // warm the translation cache
		b.Fatal(err)
	}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := emu.Reload(m, f, opts); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(steps)/float64(b.N), "instructions/op")
	}
}

// benchValidate measures the full guarded rewrite — pipeline plus two
// differential executions of the hot module — with the validation
// engine forced, so the Interp/Tiered pair isolates what the tiered
// emulator buys end to end on execution-bound validation.
func benchValidate(b *testing.B, engine emu.EngineKind) {
	b.Helper()
	bin := benchHotBin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vres, err := suri.RewriteValidated(bin, suri.ValidateOptions{Engine: engine})
		if err != nil {
			b.Fatal(err)
		}
		if vres.Verdict != suri.VerdictValidated {
			b.Fatalf("verdict %s: %s", vres.Verdict, vres.Reason)
		}
	}
}

// BenchmarkValidateInterp is the validated-rewrite latency with the
// interpreter forced (the pre-tiered baseline).
func BenchmarkValidateInterp(b *testing.B) { benchValidate(b, emu.EngineInterpreter) }

// BenchmarkValidateTiered is the validated-rewrite latency on the
// tiered engine (the ?validate=1 serving default).
func BenchmarkValidateTiered(b *testing.B) { benchValidate(b, emu.EngineTiered) }

// benchRewriteBin compiles the standard benchmark module once.
func benchRewriteBin(b *testing.B) []byte {
	b.Helper()
	p := prog.Generate("bench", 9, prog.Shape{Funcs: 6, Switches: 2, Globals: 6, MainLoop: 16, Stmts: 8, NumInputs: 1})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

// benchFarm runs the full SURI evaluation loop (rewrite + behaviour
// check per case) over a fixed corpus, sequentially or on a farm pool.
// BENCH_farm.json records the paired sequential-vs--j medians.
func benchFarm(b *testing.B, workers int) {
	cases := benchCorpus(b, "ubuntu20.04", 4)
	var pool *farm.Pool
	if workers > 1 {
		pool = farm.New(farm.Config{Workers: workers})
		defer pool.Close()
	}
	tool := eval.SURI()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := eval.RunToolFarm(context.Background(), tool, cases, nil, pool)
		if st.Completed == 0 {
			b.Fatal("no case completed")
		}
	}
	b.ReportMetric(float64(len(cases)), "cases")
}

// BenchmarkFarmSequential is the nil-pool baseline (surieval without -j).
func BenchmarkFarmSequential(b *testing.B) { benchFarm(b, 1) }

// BenchmarkFarmJ4 is the same corpus on a 4-worker pool (surieval -j 4).
func BenchmarkFarmJ4(b *testing.B) { benchFarm(b, 4) }

// BenchmarkFarmJ8 is the same corpus on an 8-worker pool (surieval -j 8).
func BenchmarkFarmJ8(b *testing.B) { benchFarm(b, 8) }

// benchFarmLatency measures the pool on latency-bound tasks (each job
// parks on a timer, as jobs blocked on I/O would). Unlike the CPU-bound
// rewrite benchmarks above, the achievable speedup here is set by the
// pool's concurrency alone, not by the host's online core count.
func benchFarmLatency(b *testing.B, workers int) {
	const tasks = 32
	const lat = 2 * time.Millisecond
	pool := farm.New(farm.Config{Workers: workers})
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := pool.Map(context.Background(), "latency", tasks, func(int) farm.Task {
			return func(ctx context.Context) (any, error) {
				t := time.NewTimer(lat)
				defer t.Stop()
				select {
				case <-t.C:
					return nil, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		})
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
	b.ReportMetric(float64(tasks), "tasks")
}

// BenchmarkFarmLatencySequential is the 1-worker latency baseline.
func BenchmarkFarmLatencySequential(b *testing.B) { benchFarmLatency(b, 1) }

// BenchmarkFarmLatencyJ4 runs the latency-bound tasks on 4 workers.
func BenchmarkFarmLatencyJ4(b *testing.B) { benchFarmLatency(b, 4) }

// BenchmarkRewriteUntraced is the nil-collector baseline for the
// observability overhead claim: compare against BenchmarkRewriteTraced.
func BenchmarkRewriteUntraced(b *testing.B) {
	bin := benchRewriteBin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suri.Rewrite(bin, suri.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteTraced runs the same rewrite with a live collector
// (fresh per iteration, as cmd/suri -trace would allocate it).
func BenchmarkRewriteTraced(b *testing.B) {
	bin := benchRewriteBin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suri.Rewrite(bin, suri.Options{Obs: obs.New()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteFlight is the surid service configuration: a live
// collector with the always-on flight recorder attached (shared across
// iterations, as the server shares one ring across requests), journaling
// every stage completion. Compare against BenchmarkRewriteTraced for
// the recorder's marginal cost.
func BenchmarkRewriteFlight(b *testing.B) {
	bin := benchRewriteBin(b)
	col := obs.New().EnableFlight(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suri.Rewrite(bin, suri.Options{Obs: col.WithRequest("bench")}); err != nil {
			b.Fatal(err)
		}
	}
}
