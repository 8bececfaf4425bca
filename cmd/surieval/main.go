// Command surieval regenerates the paper's evaluation tables on the
// synthetic benchmark: Table 2 (vs Ddisasm), Table 3 (vs Egalito),
// Table 4 (runtime overhead), Table 5 (Juliet memory-corruption study),
// and the §4.2.4/§4.3.1/§4.3.3 measurements.
//
// Usage:
//
//	surieval [-scale 0.1] [-table 2|3|4|5|instr|all] [-full] [-timing] [-j N]
//
// -scale sets the corpus size as a fraction of the paper's 197-program
// benchmark; -full is shorthand for -scale 1 (the paper's 9,456-binary
// corpus across 48 configurations; expect a long run). -table instr
// measures the standard instrumentation passes (coverage, counters,
// calltrace, shadowstack, and their composition) against the
// uninstrumented rewrite. -timing prints a per-table timing breakdown
// (span tree + per-tool metrics) at the end.
// -j fans the corpus loops of Tables 2/3/4 and the §4.2.4/§4.3.1 census
// out over a rewrite farm with N workers; results are folded in job
// order, so the table text is byte-identical to -j 1. Ctrl-C cancels
// pending farm jobs and exits without leaking goroutines.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/baseline"
	"repro/internal/eval"
	"repro/internal/farm"
	"repro/internal/obs"
)

func main() {
	scale := flag.Float64("scale", 0.06, "corpus scale (1.0 = paper-sized: 197 programs x 48 configs)")
	table := flag.String("table", "all", "which table to regenerate: 1|2|3|4|5|431|433|424|instr|all")
	full := flag.Bool("full", false, "run the paper-sized corpus (overrides -scale)")
	timing := flag.Bool("timing", false, "print a per-table timing breakdown at the end")
	jobs := flag.Int("j", 1, "parallel rewrite-farm workers for the corpus loops (1 = sequential)")
	flag.Parse()

	if *full {
		*scale = 1.0
	}
	run := func(name string) bool { return *table == "all" || *table == name }

	col := obs.New()
	section := func(name string, f func()) {
		span := col.Trace().Start(name)
		f()
		span.End()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var pool *farm.Pool
	if *jobs > 1 {
		pool = farm.New(farm.Config{Workers: *jobs, Obs: col})
		defer pool.Close()
	}
	interrupted := func() {
		if ctx.Err() != nil {
			if pool != nil {
				pool.Close() // drain canceled jobs; nothing leaks
			}
			fmt.Fprintln(os.Stderr, "surieval: interrupted")
			os.Exit(1)
		}
	}

	// Corpora are built once per host and shared between tables.
	corpora := map[string][]eval.Case{}
	corpus := func(host string) []eval.Case {
		if c, ok := corpora[host]; ok {
			return c
		}
		span := col.Trace().Start("build-corpus:" + host)
		c, err := eval.BuildCorpus(*scale, eval.ConfigsFor(host))
		span.SetInt("binaries", int64(len(c)))
		span.End()
		fail(err)
		corpora[host] = c
		return c
	}

	if run("1") {
		fmt.Println(table1())
	}

	if run("2") {
		section("table2", func() {
			cases := corpus("ubuntu20.04")
			rows := eval.ReliabilityTable(ctx, cases, eval.Ddisasm(), false, col, pool)
			interrupted()
			fmt.Println(eval.FormatReliability(
				fmt.Sprintf("Table 2: SURI vs Ddisasm (scale %.2f, %d binaries)", *scale, len(cases)),
				"Ddisasm", rows))
		})
	}

	if run("3") {
		section("table3", func() {
			cases := corpus("ubuntu18.04")
			rows := eval.ReliabilityTable(ctx, cases, eval.Egalito(), true, col, pool)
			interrupted()
			fmt.Println(eval.FormatReliability(
				fmt.Sprintf("Table 3: SURI vs Egalito (scale %.2f, C++-like programs excluded)", *scale),
				"Egalito", rows))
		})
	}

	if run("4") {
		section("table4", func() {
			cases := append(append([]eval.Case(nil), corpus("ubuntu20.04")...), corpus("ubuntu18.04")...)
			rows := eval.OverheadTable(ctx, cases, []baseline.Rewriter{eval.SURI(), eval.Ddisasm(), eval.Egalito()}, pool)
			interrupted()
			fmt.Println(eval.FormatOverhead(rows))
		})
	}

	if run("431") || run("424") {
		cases := corpus("ubuntu20.04")
		span := col.Trace().Start("section431")
		st, err := eval.MeasureInstrumentation(ctx, cases, pool)
		span.End()
		interrupted()
		fail(err)
		fmt.Printf("§4.3.1 instrumentation statistics (%d binaries):\n", st.Binaries)
		fmt.Printf("  added instructions:          %6.2f%%   (paper: 2.8%%)\n", st.AddedInstrPct)
		fmt.Printf("  if-then-else dispatch fixes: %6.2f%%   (paper: 1.9%%)\n", st.IfThenElsePct)
		fmt.Printf("  extra jump-table entries:    %6.2f%%   (paper: 9.7%%)\n", st.ExtraEntriesPct)
		fmt.Printf("§4.2.4 code-pointer audit: %d pointers classified as code, all verified endbr64 targets\n\n",
			st.CodePointers)
	}

	if run("433") {
		// The ablation is expensive (two graph builds + two rewrites per
		// binary); subsample the corpus.
		full := corpus("ubuntu20.04")
		var cases []eval.Case
		for i, c := range full {
			if i%4 == 0 {
				cases = append(cases, c)
			}
		}
		span := col.Trace().Start("section433")
		imp, err := eval.MeasureCFIImpact(cases)
		span.End()
		fail(err)
		fmt.Printf("§4.3.3 impact of call frame information:\n")
		fmt.Printf("  CFG build speedup with CFI:  %6.2fx   (paper: 4.1x on real-world binaries)\n", imp.SpeedupWithCFI)
		fmt.Printf("  extra instructions w/o CFI:  %6.2f%%   (paper: 20.2%%; see EXPERIMENTS.md)\n", imp.ExtraInstrPct)
		fmt.Printf("  overhead with / without CFI: %6.2f%% / %.2f%% (paper: 0.23%% / 0.65%%)\n\n",
			imp.OverheadWithPct, imp.OverheadNoCFIPct)
	}

	if run("instr") {
		// Six rewrites + seven emulator runs per binary: subsample like
		// the §4.3.3 ablation does.
		full := corpus("ubuntu20.04")
		var cases []eval.Case
		for i, c := range full {
			if i%4 == 0 {
				cases = append(cases, c)
			}
		}
		section("instr", func() {
			rows, err := eval.InstrOverheadTable(cases)
			fail(err)
			fmt.Println(eval.FormatInstrOverhead(rows))
		})
	}

	if run("5") {
		section("table5", func() {
			per := int(40 * *scale)
			if per < 5 {
				per = 5
			}
			ours, basan, asan, err := eval.Table5(2025, per)
			fail(err)
			fmt.Println(eval.FormatTable5(ours, basan, asan))
		})
	}

	if pool != nil {
		pool.Close()
	}
	if *timing {
		fmt.Println("per-table timing breakdown:")
		fmt.Print(col.Text())
	}
}

func table1() string {
	return `Table 1 (taxonomy, from the paper): symbolic label categories S1-S7.
The compiler in internal/cc emits every category:
  S1  .quad f           function-pointer tables (relocated)      cc: FuncTable globals
  S2  .quad v+42        static pointers incl. past-the-end       cc: PtrInit globals
  S3  .long a-b (data)  not emitted by C compilers for x64 data  (not generated)
  S4  .long L-Ljt       jump-table entries                       cc: switch lowering
  S5  jmp L             direct branches                          cc: control flow
  S6  lea r,[RIP+L]     plain RIP-relative                       cc: global access, FuncRef
  S7  lea r,[RIP+L+c]   composite/anchored access                cc: bss anchor folding
`
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "surieval:", err)
		os.Exit(1)
	}
}
