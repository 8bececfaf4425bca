package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/farm"
	"repro/internal/instr"
	"repro/internal/obs"
	"repro/internal/sanitizer"
)

// Row is one line of a reliability comparison table (Table 2/3).
type Row struct {
	Suite    string
	Compiler string // "GCC" or "Clang"
	SURI     ToolStats
	Other    ToolStats
}

// ReliabilityTable runs SURI against one comparison tool (Table 2 with
// Ddisasm, Table 3 with Egalito) over a pre-built corpus, grouped by
// suite and compiler family. Per-tool spans and counters go to col
// (nil disables collection), and each table cell's per-case work fans
// out over pool (nil runs it inline); grouping, ordering and folding do
// not depend on the pool, so the rendered table text is byte-identical
// at any worker count.
func ReliabilityTable(ctx context.Context, cases []Case, other baseline.Rewriter, excludeCPP bool, col *obs.Collector, pool *farm.Pool) []Row {
	if excludeCPP {
		cases = Filter(cases, func(c Case) bool { return !c.Prog.CPP })
	}
	type key struct {
		suite string
		gcc   bool
	}
	groups := map[key][]Case{}
	var order []key
	for _, c := range cases {
		k := key{suite: c.Suite, gcc: IsGCCCase(c)}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].suite != order[j].suite {
			return suiteRank(order[i].suite) < suiteRank(order[j].suite)
		}
		return !order[i].gcc && order[j].gcc // Clang first, like the paper
	})
	var rows []Row
	for _, k := range order {
		comp := "GCC"
		if !k.gcc {
			comp = "Clang"
		}
		rows = append(rows, Row{
			Suite:    k.suite,
			Compiler: comp,
			SURI:     RunTool(ctx, SURI(), groups[k], col, pool),
			Other:    RunTool(ctx, other, groups[k], col, pool),
		})
	}
	return rows
}

func suiteRank(s string) int {
	switch s {
	case "coreutils":
		return 0
	case "binutils":
		return 1
	case "spec2006":
		return 2
	default:
		return 3
	}
}

// FormatReliability renders a Table 2/3-style text table.
func FormatReliability(title, otherName string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-6s | %6s %8s %-7s | %6s %8s %-7s\n",
		"Suite", "CC", "Fin%", "T(s)", "Pass", "Fin%", "T(s)", "Pass")
	fmt.Fprintf(&b, "%-10s %-6s | %-25s | %-25s\n", "", "", "SURI", otherName)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s | %6.1f %8.2f %-7s | %6.1f %8.2f %-7s\n",
			r.Suite, r.Compiler,
			r.SURI.Fin(), r.SURI.TimeSec, passStr(r.Suite, r.SURI),
			r.Other.Fin(), r.Other.TimeSec, passStr(r.Suite, r.Other))
	}
	return b.String()
}

func passStr(suite string, st ToolStats) string {
	if suite == "coreutils" || suite == "binutils" {
		if st.SuitePass {
			return "Succ"
		}
		return "Fail"
	}
	return fmt.Sprintf("%.1f%%", st.Pass())
}

// OverheadRow is one line of Table 4 (runtime overhead at -O3).
type OverheadRow struct {
	Suite string
	Tool  string
	// Overhead is the mean relative increase in retired instructions of
	// the rewritten binary (no-op instrumentation), the emulator's
	// equivalent of the paper's wall-clock overhead.
	Overhead float64
	Binaries int
}

// overheadOut is one case's Table 4 contribution.
type overheadOut struct {
	suite string
	ratio float64
	ok    bool
}

// OverheadTable measures rewritten-binary overhead for each tool on the
// -O3 cases each tool can rewrite (§4.3.2 filters to binaries all tools
// handled; we report per-tool means over its own successes plus the
// common-success mean). The per-case rewrite+measure work fans out over
// pool (nil runs it inline). Ratios are emulator instruction counts —
// fully deterministic — and the per-suite means are folded in case
// order, so the rows are identical at any worker count.
func OverheadTable(ctx context.Context, cases []Case, tools []baseline.Rewriter, pool *farm.Pool) []OverheadRow {
	o3 := Filter(cases, func(c Case) bool { return c.Config.Opt == cc.O3 })
	measure := func(tool baseline.Rewriter, c Case) overheadOut {
		res, err := tool.Rewrite(c.Bin)
		if err != nil {
			return overheadOut{}
		}
		ratio, ok := overheadOf(c, res.Binary)
		return overheadOut{suite: c.Suite, ratio: ratio, ok: ok}
	}
	var rows []OverheadRow
	for _, tool := range tools {
		vals, errs := pool.Map(ctx, "table4:"+tool.Name(), len(o3), func(i int) farm.Task {
			c := o3[i]
			return func(context.Context) (any, error) { return measure(tool, c), nil }
		})
		perSuite := map[string][]float64{}
		for i, v := range vals {
			if errs[i] != nil {
				continue
			}
			if o := v.(overheadOut); o.ok {
				perSuite[o.suite] = append(perSuite[o.suite], o.ratio)
			}
		}
		for _, suite := range []string{"spec2006", "spec2017"} {
			vals := perSuite[suite]
			if len(vals) == 0 {
				rows = append(rows, OverheadRow{Suite: suite, Tool: tool.Name()})
				continue
			}
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			rows = append(rows, OverheadRow{
				Suite: suite, Tool: tool.Name(),
				Overhead: 100 * sum / float64(len(vals)),
				Binaries: len(vals),
			})
		}
	}
	return rows
}

// overheadOf compares retired instructions; only counted when behaviour
// matches (a wrong binary's speed is meaningless).
func overheadOf(c Case, rewritten []byte) (float64, bool) {
	if len(c.Prog.Inputs) == 0 {
		return 0, false
	}
	in := inputBytes(c.Prog.Inputs[0])
	a, err := emu.Run(c.Bin, emu.Options{Input: in})
	if err != nil {
		return 0, false
	}
	b, err := emu.Run(rewritten, emu.Options{Input: in, MaxSteps: a.Steps*10 + 1_000_000})
	if err != nil || string(a.Stdout) != string(b.Stdout) || a.Exit != b.Exit {
		return 0, false
	}
	if a.Steps == 0 {
		return 0, false
	}
	return float64(b.Steps)/float64(a.Steps) - 1, true
}

// FormatOverhead renders Table 4.
func FormatOverhead(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Table 4: runtime overhead of rewritten SPEC binaries (-O3, retired instructions)\n")
	fmt.Fprintf(&b, "%-10s %-10s %10s %6s\n", "Suite", "Tool", "Overhead", "#Bins")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10s %9.2f%% %6d\n", r.Suite, r.Tool, r.Overhead, r.Binaries)
	}
	return b.String()
}

// InstrumentationStats aggregates §4.3.1 over a corpus.
type InstrumentationStats struct {
	AddedInstrPct   float64 // added instructions vs copied
	IfThenElsePct   float64 // multi-base dispatches vs all dispatches
	ExtraEntriesPct float64 // over-approximated vs true table entries
	CodePointers    int     // §4.2.4 audit: pointers verified to target endbr64
	Binaries        int
}

// MeasureInstrumentation runs SURI over the cases and aggregates its
// pipeline statistics. The per-case rewrites fan out over pool (nil
// runs them inline). The census sums are integers folded in case
// order, and on failure the lowest-index error is reported.
func MeasureInstrumentation(ctx context.Context, cases []Case, pool *farm.Pool) (InstrumentationStats, error) {
	vals, errs := pool.Map(ctx, "census", len(cases), func(i int) farm.Task {
		c := cases[i]
		return func(context.Context) (any, error) {
			res, err := core.Rewrite(c.Bin, core.Options{})
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		}
	})
	stats := make([]core.Stats, len(cases))
	for i := range cases {
		if errs[i] != nil {
			return InstrumentationStats{}, errs[i]
		}
		stats[i] = vals[i].(core.Stats)
	}
	var added, copied, multi, tables, entries, trueEntries, ptrs int
	n := 0
	for i, c := range cases {
		s := stats[i]
		added += s.AddedInstructions
		copied += s.CopiedInstructions
		multi += s.MultiBase
		tables += s.Tables
		// The entry over-approximation is only meaningful where the
		// compiler emitted jump tables at all.
		if s.Tables > 0 && tablesExpected(c.Config) {
			entries += s.TableEntries
			trueEntries += c.Prog.TrueTableEntries
		}
		ptrs += s.CodePointers
		n++
	}
	st := InstrumentationStats{CodePointers: ptrs, Binaries: n}
	if copied > 0 {
		st.AddedInstrPct = 100 * float64(added) / float64(copied)
	}
	if tables > 0 {
		st.IfThenElsePct = 100 * float64(multi) / float64(tables)
	}
	if trueEntries > 0 {
		st.ExtraEntriesPct = 100 * float64(entries-trueEntries) / float64(trueEntries)
	}
	return st, nil
}

// InstrOverheadRow is one line of the instrumentation-overhead table:
// one standard pass set measured against the uninstrumented rewrite of
// the same binaries.
type InstrOverheadRow struct {
	Passes   string
	StepsPct float64 // mean retired-instruction overhead vs the uninstrumented rewrite
	AddedPct float64 // pass-inserted entries as a share of the uninstrumented S'
	Payload  int     // mean payload-region bytes (.suri.instr)
	Binaries int
}

// InstrOverheadTable measures every standard instrumentation pass, and
// their full composition, over the cases that ship input vectors. The
// baseline for each binary is its UNINSTRUMENTED rewrite, so the
// pipeline's own overhead (Table 4) divides out and the ratio isolates
// the inserted code. Behaviour is checked, not assumed: an instrumented
// binary whose stdout or exit status diverges from the original is an
// error, never a silently dropped sample.
func InstrOverheadTable(cases []Case) ([]InstrOverheadRow, error) {
	sets := append(instr.Names(), strings.Join(instr.Names(), ","))
	type acc struct {
		ratio   float64
		added   float64
		payload int
		n       int
	}
	accs := make([]acc, len(sets))
	for _, c := range cases {
		if len(c.Prog.Inputs) == 0 {
			continue
		}
		in := inputBytes(c.Prog.Inputs[0])
		orig, err := emu.Run(c.Bin, emu.Options{Input: in})
		if err != nil {
			continue // the original itself doesn't run under this input
		}
		base, err := core.Rewrite(c.Bin, core.Options{})
		if err != nil {
			return nil, err
		}
		bres, err := emu.Run(base.Binary, emu.Options{Input: in, MaxSteps: orig.Steps*10 + 1_000_000})
		if err != nil || bres.Steps == 0 {
			continue
		}
		for i, set := range sets {
			passes, err := instr.ParseList(set)
			if err != nil {
				return nil, err
			}
			res, err := core.Rewrite(c.Bin, core.Options{Passes: passes})
			if err != nil {
				return nil, fmt.Errorf("instrument %s: %w", set, err)
			}
			ires, err := emu.Run(res.Binary, emu.Options{Input: in, MaxSteps: orig.Steps*100 + 10_000_000})
			if err != nil {
				return nil, fmt.Errorf("instrument %s: run: %w", set, err)
			}
			if string(ires.Stdout) != string(orig.Stdout) || ires.Exit != orig.Exit {
				return nil, fmt.Errorf("instrument %s: behaviour diverged from the original", set)
			}
			accs[i].ratio += float64(ires.Steps)/float64(bres.Steps) - 1
			accs[i].added += float64(res.Stats.InstrInserted) / float64(base.Stats.Instructions)
			accs[i].payload += res.Stats.InstrPayloadBytes
			accs[i].n++
		}
	}
	rows := make([]InstrOverheadRow, len(sets))
	for i, set := range sets {
		rows[i] = InstrOverheadRow{Passes: set}
		if a := accs[i]; a.n > 0 {
			rows[i].StepsPct = 100 * a.ratio / float64(a.n)
			rows[i].AddedPct = 100 * a.added / float64(a.n)
			rows[i].Payload = a.payload / a.n
			rows[i].Binaries = a.n
		}
	}
	return rows, nil
}

// FormatInstrOverhead renders the instrumentation-overhead table.
func FormatInstrOverhead(rows []InstrOverheadRow) string {
	var b strings.Builder
	b.WriteString("Instrumentation overhead: standard passes vs the uninstrumented rewrite\n")
	fmt.Fprintf(&b, "%-42s %8s %8s %10s %6s\n", "Passes", "Steps%", "Added%", "Payload", "#Bins")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %7.2f%% %7.2f%% %9dB %6d\n",
			r.Passes, r.StepsPct, r.AddedPct, r.Payload, r.Binaries)
	}
	return b.String()
}

// CFIImpact reproduces §4.3.3: superset CFG construction time and size
// with and without call frame information, plus the rewritten-binary
// overhead in both modes.
type CFIImpact struct {
	SpeedupWithCFI   float64 // buildTime(without) / buildTime(with)
	ExtraInstrPct    float64 // graph instructions without vs with CFI
	OverheadWithPct  float64
	OverheadNoCFIPct float64
}

// MeasureCFIImpact runs the ablation on the given cases.
func MeasureCFIImpact(cases []Case) (CFIImpact, error) {
	var tWith, tWithout float64
	var iWith, iWithout int
	var ovWith, ovWithout []float64
	for _, c := range cases {
		f, err := elfx.Read(c.Bin)
		if err != nil {
			return CFIImpact{}, err
		}
		for _, use := range []bool{true, false} {
			opts := cfg.DefaultOptions()
			opts.UseEhFrame = use
			start := nowSec()
			g, err := cfg.Build(f, opts)
			el := nowSec() - start
			if err != nil {
				return CFIImpact{}, err
			}
			if use {
				tWith += el
				iWith += g.NumInstructions()
			} else {
				tWithout += el
				iWithout += g.NumInstructions()
			}
		}
		for _, ignore := range []bool{false, true} {
			res, err := core.Rewrite(c.Bin, core.Options{IgnoreEhFrame: ignore})
			if err != nil {
				return CFIImpact{}, err
			}
			if ov, ok := overheadOf(c, res.Binary); ok {
				if ignore {
					ovWithout = append(ovWithout, ov)
				} else {
					ovWith = append(ovWith, ov)
				}
			}
		}
	}
	imp := CFIImpact{}
	if tWith > 0 {
		imp.SpeedupWithCFI = tWithout / tWith
	}
	if iWith > 0 {
		imp.ExtraInstrPct = 100 * float64(iWithout-iWith) / float64(iWith)
	}
	imp.OverheadWithPct = 100 * mean(ovWith)
	imp.OverheadNoCFIPct = 100 * mean(ovWithout)
	return imp, nil
}

// tablesExpected reports whether the configuration reliably lowers every
// dispatcher switch to a jump table (so the generator's ground truth
// matches what is in the binary).
func tablesExpected(c cc.Config) bool {
	switch c.Opt {
	case cc.O1, cc.O2, cc.O3, cc.Ofast:
		return true
	}
	return false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table5 runs the Juliet-like memory-corruption study (§4.4).
func Table5(seed int64, perCWE int) (ours, basan, asan sanitizer.Verdict, err error) {
	cases := sanitizer.GenerateJuliet(seed, perCWE)
	for _, c := range cases {
		plainCfg := cc.DefaultConfig()
		plain, cerr := cc.Compile(c.Mod, plainCfg)
		if cerr != nil {
			return ours, basan, asan, cerr
		}
		for _, tl := range []struct {
			v    *sanitizer.Verdict
			tool sanitizer.Tool
		}{{&ours, sanitizer.Ours}, {&basan, sanitizer.BASan}} {
			san, serr := sanitizer.Rewrite(plain, tl.tool)
			if serr != nil {
				return ours, basan, asan, serr
			}
			tl.v.Judge(c.Bad, flagged(san))
		}
		asanCfg := cc.DefaultConfig()
		asanCfg.ASan = true
		asanBin, cerr := cc.Compile(c.Mod, asanCfg)
		if cerr != nil {
			return ours, basan, asan, cerr
		}
		asan.Judge(c.Bad, flagged(asanBin))
	}
	return ours, basan, asan, nil
}

func flagged(bin []byte) bool {
	res, err := emu.Run(bin, emu.Options{Shadow: true})
	return err == nil && res.Exit == 134
}

// FormatTable5 renders Table 5.
func FormatTable5(ours, basan, asan sanitizer.Verdict) string {
	var b strings.Builder
	b.WriteString("Table 5: memory corruption detection on the Juliet-like suite\n")
	fmt.Fprintf(&b, "%-16s %8s %8s %8s\n", "", "Ours", "BASan", "ASan")
	fmt.Fprintf(&b, "%-16s %8d %8d %8d\n", "True Positives", ours.TP, basan.TP, asan.TP)
	fmt.Fprintf(&b, "%-16s %8d %8d %8d\n", "False Positives", ours.FP, basan.FP, asan.FP)
	fmt.Fprintf(&b, "%-16s %8d %8d %8d\n", "False Negatives", ours.FN, basan.FN, asan.FN)
	fmt.Fprintf(&b, "%-16s %8d %8d %8d\n", "True Negatives", ours.TN, basan.TN, asan.TN)
	fmt.Fprintf(&b, "%-16s %8d %8d %8d\n", "Total Binaries", ours.Total(), basan.Total(), asan.Total())
	return b.String()
}
