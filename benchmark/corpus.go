package main

import (
	"bytes"
	"fmt"
	"time"

	suri "repro"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/emit"
	"repro/internal/emu"
	"repro/internal/harden"
	"repro/internal/repair"
	"repro/internal/serialize"
	"repro/internal/symbolize"
)

// Draw sizes: 16 modules of each shape, each compiled under two build
// configs (96 binaries, every config twice). validate-corpus spreads the
// programs' run lengths for execution weight.
var (
	rewriteDraw  = drawSpec{perShape: 16, configs: 2}
	validateDraw = drawSpec{perShape: 16, configs: 2, spreadRun: true}
)

// newRewriteCorpus is the rewrite-corpus workload: one client calls
// suri.Rewrite on each drawn binary in turn.
func newRewriteCorpus(seed int64, spec drawSpec) (*workload, error) {
	cases, err := newDraw(seed, spec)
	if err != nil {
		return nil, err
	}
	w := corpusWorkload(cases)
	w.op = func(n int) ([]byte, error) {
		res, err := suri.Rewrite(cases[w.caseAt(n)].Bin, suri.Options{})
		if err != nil {
			return nil, err
		}
		return res.Binary, nil
	}
	w.tracedOp = func(n int, rec record) ([]byte, error) {
		bin := cases[w.caseAt(n)].Bin
		var res *suri.Result
		var out []byte
		var rerr, serr error
		core := func() { res, rerr = suri.Rewrite(bin, suri.Options{}) }
		staged := func() { out, serr = stagedRewrite(bin, rec) }
		untraced, traced := pair(n, core, staged)
		if rerr != nil {
			return nil, rerr
		}
		if serr != nil {
			return nil, serr
		}
		if !bytes.Equal(out, res.Binary) {
			return nil, fmt.Errorf("%s: stage-by-stage output differs from suri.Rewrite", cases[w.caseAt(n)].Name)
		}
		rec["lat.untraced_ms"] = ms(untraced)
		rec["lat.traced_ms"] = ms(traced)
		rec["pipeline.self_ms"] = ms(untraced) - stageSum(rec)
		return out, nil
	}
	return w, nil
}

// newValidateCorpus is the validate-corpus workload: one client calls
// suri.RewriteValidated on each drawn binary with its own test inputs.
func newValidateCorpus(seed int64, spec drawSpec) (*workload, error) {
	cases, err := newDraw(seed, spec)
	if err != nil {
		return nil, err
	}
	w := corpusWorkload(cases)
	validate := func(c *Case) (*suri.ValidatedResult, error) {
		res, err := suri.RewriteValidated(c.Bin, suri.ValidateOptions{Inputs: c.Inputs})
		if err != nil {
			return nil, err
		}
		if res.Verdict != suri.VerdictValidated {
			return nil, fmt.Errorf("%s: verdict %s: %s", c.Name, res.Verdict, res.Reason)
		}
		return res, nil
	}
	w.op = func(n int) ([]byte, error) {
		res, err := validate(cases[w.caseAt(n)])
		if err != nil {
			return nil, err
		}
		return res.Binary, nil
	}
	w.tracedOp = func(n int, rec record) ([]byte, error) {
		c := cases[w.caseAt(n)]
		var res *suri.ValidatedResult
		var out []byte
		var verr, serr error
		core := func() { res, verr = validate(c) }
		staged := func() { out, serr = stagedValidate(c, rec) }
		untraced, traced := pair(n, core, staged)
		if verr != nil {
			return nil, verr
		}
		if serr != nil {
			return nil, serr
		}
		if !bytes.Equal(out, res.Binary) {
			return nil, fmt.Errorf("%s: stage-by-stage output differs from suri.RewriteValidated", c.Name)
		}
		rec["lat.untraced_ms"] = ms(untraced)
		rec["lat.traced_ms"] = ms(traced)
		rec["validate.attempts"] = float64(res.Attempts)
		rec["validate.rewrite_share"] = rec["rewrite.total_ms"] / ms(traced)
		rec["emu.latency_share"] = (rec["emu.load_ms"] + rec["emu.orig_run_ms"] + rec["emu.rewritten_run_ms"]) / ms(traced)
		return out, nil
	}
	return w, nil
}

// corpusWorkload cycles through the cases in draw order with one client,
// and checks the stage-by-stage driver against suri.Rewrite on every
// case once per run.
func corpusWorkload(cases []*Case) *workload {
	w := &workload{cases: cases, clients: 1}
	w.seq = make([]int, len(cases))
	for i := range w.seq {
		w.seq[i] = i
	}
	w.ready = func(ck *checker) error {
		for i, c := range cases {
			out, err := stagedRewrite(c.Bin, record{})
			if err != nil {
				return fmt.Errorf("%s: stage-by-stage driver: %w", c.Name, err)
			}
			if !bytes.Equal(out, ck.got[i]) {
				return fmt.Errorf("%s: stage-by-stage output differs from the workload's", c.Name)
			}
		}
		return nil
	}
	return w
}

// pair runs the untraced and traced forms of one op back to back,
// alternating which goes first so neither always runs on warm caches,
// and returns their wall times.
func pair(n int, untraced, traced func()) (time.Duration, time.Duration) {
	timeOf := func(f func()) time.Duration {
		t := time.Now()
		f()
		return time.Since(t)
	}
	if n%2 == 0 {
		u := timeOf(untraced)
		return u, timeOf(traced)
	}
	t := timeOf(traced)
	return timeOf(untraced), t
}

// stageNames are the per-op stage timings stagedRewrite records.
var stageNames = []string{
	"elfx.read_ms", "cfg.build_ms", "serialize.ms", "repair.ms",
	"repair.audit_ms", "symbolize.ms", "emit.ms",
}

func stageSum(rec record) float64 {
	sum := 0.0
	for _, name := range stageNames {
		sum += rec[name]
	}
	return sum
}

// stagedRewrite is suri.Rewrite with default options, called one Figure 4
// stage at a time so each stage's public function can be timed: the
// same calls with the same options, minus the pipeline's own spans,
// metrics and cancellation checks. It records stage times, allocation
// counts of the CFG builder and emitter, and the counts the stages
// return. Its output must be byte-identical to suri.Rewrite's.
func stagedRewrite(bin []byte, rec record) ([]byte, error) {
	start := time.Now()
	var err error
	var f *elfx.File
	rec.time("elfx.read_ms", func() { f, err = elfx.Read(bin) })
	if err != nil {
		return nil, err
	}
	if !f.IsPIE() || !f.HasCET() {
		return nil, suri.ErrNotCETPIE
	}
	budget := harden.Budget{}.WithDefaults()
	copts := cfg.DefaultOptions()
	copts.MaxBlockInsts = budget.BlockInsts
	copts.MaxTableEntries = budget.TableEntries
	copts.MaxRounds = budget.CFGRounds
	copts.MaxTotalInsts = budget.TotalInsts
	copts.MaxBlocks = budget.Blocks

	var g *cfg.Graph
	a := mallocs()
	rec.time("cfg.build_ms", func() { g, err = cfg.Build(f, copts) })
	rec["cfg.allocs"] = float64(mallocs() - a)
	if err != nil {
		return nil, err
	}
	gst := g.Stats()
	rec["cfg.decoded_insts"] = float64(gst.PlaneMisses)
	rec["cfg.blocks"] = float64(gst.Blocks)

	var entries []serialize.Entry
	rec.time("serialize.ms", func() { entries, err = serialize.Serialize(g) })
	if err != nil {
		return nil, err
	}
	var rep *repair.Result
	rec.time("repair.ms", func() { rep, err = repair.Repair(entries, g) })
	if err != nil {
		return nil, err
	}
	rec.time("repair.audit_ms", func() { _, err = repair.Audit(entries, g) })
	if err != nil {
		return nil, err
	}
	var sym *symbolize.Result
	rec.time("symbolize.ms", func() { entries, sym, err = symbolize.Symbolize(entries, g) })
	if err != nil {
		return nil, err
	}
	rec["symbolize.table_entries"] = float64(sym.NewEntries)

	sets := make(map[string]uint64, len(rep.Sets)+len(sym.Sets))
	for k, v := range rep.Sets {
		sets[k] = v
	}
	for k, v := range sym.Sets {
		sets[k] = v
	}
	var out []byte
	var layout *emit.Layout
	a = mallocs()
	rec.time("emit.ms", func() {
		out, layout, err = emit.Emit(emit.Input{Graph: g, Entries: entries, TableItems: sym.TableItems, Sets: sets})
	})
	rec["emit.allocs"] = float64(mallocs() - a)
	if err != nil {
		return nil, err
	}
	rec["emit.relax_rounds"] = float64(layout.RelaxRounds)
	rec["stage.sum_ms"] = stageSum(rec)
	rec["rewrite.total_ms"] = ms(time.Since(start))
	return out, nil
}

// stagedValidate is suri.RewriteValidated's first attempt, called one
// layer at a time: stagedRewrite, then the differential executions of
// the original and the rewritten binary on every input, each on one
// machine that is loaded once and reloaded per input, as the validator
// does it. It records loader and run times, retired instructions, and
// the tiered engine's counters.
func stagedValidate(c *Case, rec record) ([]byte, error) {
	out, err := stagedRewrite(c.Bin, rec)
	if err != nil {
		return nil, err
	}
	var of, rf *elfx.File
	rec.time("emu.load_ms", func() {
		if of, err = elfx.Read(c.Bin); err == nil {
			rf, err = elfx.Read(out)
		}
	})
	if err != nil {
		return nil, err
	}
	var om, rm *emu.Machine
	budget := harden.Budget{}.WithDefaults()
	for k, in := range c.Inputs {
		a, err := execute(&om, of, emu.Options{Input: in, MaxSteps: budget.EmuSteps}, rec, "emu.orig_run_ms")
		if err != nil {
			return nil, fmt.Errorf("%s input %d: original: %w", c.Name, k, err)
		}
		b, err := execute(&rm, rf, emu.Options{Input: in, MaxSteps: a.Steps*10 + 1_000_000}, rec, "emu.rewritten_run_ms")
		if err != nil {
			return nil, fmt.Errorf("%s input %d: rewritten: %w", c.Name, k, err)
		}
		if a.Exit != b.Exit || !bytes.Equal(a.Stdout, b.Stdout) {
			return nil, fmt.Errorf("%s input %d: rewritten binary diverged", c.Name, k)
		}
		rec["emu.orig_steps"] += float64(a.Steps)
		rec["emu.steps"] += float64(a.Steps + b.Steps)
	}
	for _, m := range []*emu.Machine{om, rm} {
		if ts := m.TierStats(); ts != nil {
			rec["emu.tier_translations"] += float64(ts.Translations)
			rec["emu.tier_steps"] += float64(ts.TierSteps)
		}
	}
	return out, nil
}

// execute runs f to completion on *slot, loading a machine on first use
// and reloading it afterwards, and adds the load and run times to rec.
func execute(slot **emu.Machine, f *elfx.File, opts emu.Options, rec record, runKey string) (*emu.Result, error) {
	var err error
	rec.time("emu.load_ms", func() {
		if *slot == nil {
			*slot, err = emu.LoadFile(f, opts)
		} else {
			err = emu.Reload(*slot, f, opts)
		}
	})
	if err != nil {
		return nil, err
	}
	m := *slot
	rec.time(runKey, func() { err = m.Run() })
	if err != nil {
		return nil, err
	}
	_, code := m.Exited()
	return &emu.Result{Stdout: m.Stdout, Exit: code, Steps: m.Steps}, nil
}
