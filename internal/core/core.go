// Package core orchestrates the SURI pipeline (§3.1, Figure 4):
//
//	Superset CFG Builder -> CFG Serializer -> Pointer Repairer ->
//	Superset Symbolizer -> (user instrumentation of S') -> Emitter
//
// The root package of this module re-exports the public API.
package core

import (
	"errors"
	"sort"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/emit"
	"repro/internal/harden"
	"repro/internal/instr"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/serialize"
	"repro/internal/symbolize"
)

// ErrNotCETPIE is returned for binaries outside SURI's problem scope
// (§2.1): only CET-enabled PIE binaries are rewritten.
var ErrNotCETPIE = errors.New("suri: target must be a CET-enabled PIE binary")

// StageError tags a pipeline failure with the Figure 4 stage that died
// ("elf", "cfg", "repair", "audit", "symbolize", "instrument", "emit"),
// so batch-layer retry/skip decisions and the CLI can both report where
// a rewrite failed. It wraps the underlying error for errors.Is/As.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return "suri: " + e.Stage + ": " + e.Err.Error() }
func (e *StageError) Unwrap() error { return e.Err }

func stageErr(stage string, err error) error { return &StageError{Stage: stage, Err: err} }

// Stage returns the pipeline stage recorded anywhere in err's chain, or
// "" when the error is not a stage failure (e.g. ErrNotCETPIE, which is
// a scope rejection, not a stage death).
func Stage(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// Instrumenter edits S' — the serialized, repaired, symbolized code —
// before emission. Implementations may insert synthesized entries
// anywhere; they must not reorder or delete original entries.
type Instrumenter func(entries []serialize.Entry) ([]serialize.Entry, error)

// Options configure a rewrite.
type Options struct {
	// IgnoreEhFrame makes the CFG builder skip call frame information
	// even when present (the §4.3.3 ablation).
	IgnoreEhFrame bool

	// Instrument, if set, edits S' (§3.1 step 4: "users can modify S'
	// at this stage"). It is the raw hook; Passes is the structured
	// form and runs after it.
	Instrument Instrumenter

	// Passes runs the internal/instr pass pipeline over S' after the
	// raw Instrument hook. Pass payload data becomes the writable
	// .suri.instr section of the rewritten binary.
	Passes []instr.Pass

	// AllowNonCET skips the problem-scope check (used by experiments).
	AllowNonCET bool

	// Budget bounds the pipeline's resource use (CFG fixpoint rounds,
	// decoded instructions, block count, jump-table over-approximation).
	// The zero value applies the harden package defaults. Exhaustion
	// surfaces as a StageError wrapping harden.BudgetExceeded.
	Budget harden.Budget

	// Cancel, when non-nil and closed, aborts the rewrite with
	// harden.ErrCanceled — checked per work item inside the CFG builder
	// and between every later stage. Callers wire a context's Done
	// channel here (the farm does this per job).
	Cancel <-chan struct{}

	// Obs, if set, records one span per pipeline stage (with nested
	// sub-spans inside the CFG builder) and feeds pipeline statistics
	// into the metric registry. Nil disables collection at zero cost.
	Obs *obs.Collector
}

// Stats aggregates the pipeline measurements reported in §4.2.4/§4.3.1.
type Stats struct {
	// Graph statistics.
	Blocks       int
	Entries      int
	Instructions int

	// Serialized code.
	CopiedInstructions int
	AddedInstructions  int

	// Pointer repair.
	CodePointers   int
	PinnedPointers int

	// Jump tables.
	Tables         int
	MultiBase      int // dispatch sites needing if-then-else (§3.5.2)
	TableEntries   int // over-approximated entries in isolated tables
	AdjustedRelas  int
	RewrittenBytes int

	// Hot-path instrumentation: branch-relaxation layout passes and
	// x86.Decode calls during CFG construction (cfg.Stats.PlaneMisses).
	RelaxRounds int
	PlaneMisses uint64

	// Instrumentation passes (internal/instr).
	InstrPasses       int
	InstrInserted     int
	InstrPayloadBytes int
}

// Result is a completed rewrite.
type Result struct {
	// Binary is the rewritten ELF image.
	Binary []byte

	// SPrime is the final instrumented assembly stream (for inspection;
	// render with Render).
	SPrime []serialize.Entry

	// InstrMarks, parallel to SPrime when Options.Passes ran, flags
	// the entries the instrumentation passes inserted; nil otherwise.
	InstrMarks []bool

	// Graph is the superset CFG.
	Graph *cfg.Graph

	// Layout describes the new sections.
	Layout *emit.Layout

	Stats Stats

	// Trace is the root pipeline span when Options.Obs was set; nil
	// otherwise.
	Trace *obs.Span
}

// Rewrite runs the full SURI pipeline over a binary image.
func Rewrite(bin []byte, opts Options) (*Result, error) {
	tr := opts.Obs.Trace()
	reg := opts.Obs.Metrics()
	root := tr.Start("rewrite")
	defer root.End()

	// fail tags err with its stage and journals it to the flight
	// recorder — StageErrors and budget trips are exactly the crash
	// forensics /debug/flight exists to retain.
	fail := func(stage string, err error) error {
		opts.Obs.Record(obs.Event{Kind: "stage_error", Name: stage, Detail: err.Error()})
		if errors.Is(err, harden.ErrBudget) {
			opts.Obs.Record(obs.Event{Kind: "budget", Name: stage, Detail: err.Error()})
		}
		return stageErr(stage, err)
	}

	// stage runs one pipeline stage under its span. The span is closed
	// on every exit path — normal, error, and panic — via the deferred
	// safety net, so an injected fault or a panicking user hook can
	// never leak an open span onto the trace's stack (the harden matrix
	// test asserts OpenSpans() == 0 after each fault). Completions feed
	// the per-stage latency histogram and the flight journal.
	stage := func(name string, fn func(span *obs.Span) error) error {
		span := tr.Start(name)
		ended := false
		defer func() {
			if !ended {
				span.End()
			}
		}()
		err := fn(span)
		span.End()
		ended = true
		if reg != nil {
			reg.LatencyHistogram("suri.stage_ns." + name).Observe(span.Duration())
		}
		if err != nil {
			return fail(name, err)
		}
		opts.Obs.Record(obs.Event{Kind: "stage", Name: name, Dur: span.Duration()})
		return nil
	}

	// checkCancel makes wall-clock cancellation responsive at stage
	// granularity; the CFG builder additionally checks per work item.
	checkCancel := func(stage string) error {
		select {
		case <-opts.Cancel:
			return fail(stage, harden.ErrCanceled)
		default:
			return nil
		}
	}

	f, err := elfx.Read(bin)
	if err != nil {
		return nil, fail("elf", err)
	}
	if !opts.AllowNonCET && (!f.IsPIE() || !f.HasCET()) {
		return nil, ErrNotCETPIE
	}
	budget := opts.Budget.WithDefaults()
	copts := cfg.DefaultOptions()
	copts.UseEhFrame = !opts.IgnoreEhFrame
	copts.MaxBlockInsts = budget.BlockInsts
	copts.MaxTableEntries = budget.TableEntries
	copts.MaxRounds = budget.CFGRounds
	copts.MaxTotalInsts = budget.TotalInsts
	copts.MaxBlocks = budget.Blocks
	copts.Cancel = opts.Cancel
	copts.Trace = tr

	// 1. Superset CFG Builder.
	var g *cfg.Graph
	var gst cfg.Stats
	if err := stage("cfg", func(span *obs.Span) error {
		var err error
		if g, err = cfg.Build(f, copts); err != nil {
			return err
		}
		gst = g.Stats()
		span.SetInt("blocks", int64(gst.Blocks))
		span.SetInt("entries", int64(gst.Entries))
		span.SetInt("instructions", int64(gst.Instructions))
		return nil
	}); err != nil {
		return nil, err
	}

	// 2. CFG Serializer.
	if err := checkCancel("serialize"); err != nil {
		return nil, err
	}
	var entries []serialize.Entry
	if err := stage("serialize", func(span *obs.Span) error {
		var err error
		if entries, err = serialize.Serialize(g); err != nil {
			return err
		}
		span.SetInt("entries", int64(len(entries)))
		return nil
	}); err != nil {
		return nil, err
	}

	// 3. Pointer Repairer.
	if err := checkCancel("repair"); err != nil {
		return nil, err
	}
	var rep *repair.Result
	if err := stage("repair", func(span *obs.Span) error {
		var err error
		if rep, err = repair.Repair(entries, g); err != nil {
			return err
		}
		span.SetInt("code_pointers", int64(rep.CodePointers))
		span.SetInt("pinned", int64(rep.Pinned))
		return nil
	}); err != nil {
		return nil, err
	}

	if err := stage("audit", func(*obs.Span) error {
		_, err := repair.Audit(entries, g)
		return err
	}); err != nil {
		return nil, err
	}

	// 4. Superset Symbolizer.
	if err := checkCancel("symbolize"); err != nil {
		return nil, err
	}
	var sym *symbolize.Result
	if err := stage("symbolize", func(span *obs.Span) error {
		var err error
		if entries, sym, err = symbolize.Symbolize(entries, g); err != nil {
			return err
		}
		span.SetInt("tables", int64(sym.Tables))
		span.SetInt("multi_base", int64(sym.MultiBase))
		return nil
	}); err != nil {
		return nil, err
	}

	// User instrumentation of S': first the raw hook, then the pass
	// pipeline. Either failure surfaces as a StageError naming the
	// instrument stage (the CLI exit and surid's 422 both key on it).
	var instrMarks []bool
	var instrItems []asm.Item
	instrStats := [3]int{}
	if err := stage("instrument", func(span *obs.Span) error {
		if err := harden.Inject(harden.FPInstrument); err != nil {
			return err
		}
		if opts.Instrument != nil {
			var err error
			if entries, err = opts.Instrument(entries); err != nil {
				return err
			}
		}
		if len(opts.Passes) > 0 {
			ires, ierr := instr.Apply(entries, opts.Passes, instr.Options{
				Budget: opts.Budget, Cancel: opts.Cancel, Obs: opts.Obs,
			})
			if ierr != nil {
				return ierr
			}
			entries = ires.Entries
			instrMarks = ires.Inserted
			instrItems = ires.Payload
			instrStats = [3]int{ires.Passes, ires.Added, ires.PayloadBytes}
			span.SetInt("passes", int64(ires.Passes))
			span.SetInt("inserted", int64(ires.Added))
			span.SetInt("payload_bytes", int64(ires.PayloadBytes))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// 5. Emitter.
	if err := checkCancel("emit"); err != nil {
		return nil, err
	}
	var out []byte
	var layout *emit.Layout
	if err := stage("emit", func(span *obs.Span) error {
		sets := make(map[string]uint64, len(rep.Sets)+len(sym.Sets))
		for k, v := range rep.Sets {
			sets[k] = v
		}
		for k, v := range sym.Sets {
			sets[k] = v
		}
		var err error
		out, layout, err = emit.Emit(emit.Input{
			Graph:      g,
			Entries:    entries,
			TableItems: sym.TableItems,
			InstrItems: instrItems,
			Sets:       sets,
			Obs:        opts.Obs,
		})
		if err != nil {
			return err
		}
		span.SetInt("bytes", int64(len(out)))
		span.SetInt("adjusted_relas", int64(layout.AdjustedRelas))
		return nil
	}); err != nil {
		return nil, err
	}

	orig, synth := serialize.Count(entries)
	stats := Stats{
		Blocks:             gst.Blocks,
		Entries:            gst.Entries,
		Instructions:       gst.Instructions,
		CopiedInstructions: orig,
		AddedInstructions:  synth,
		CodePointers:       rep.CodePointers,
		PinnedPointers:     rep.Pinned,
		Tables:             sym.Tables,
		MultiBase:          sym.MultiBase,
		TableEntries:       sym.NewEntries,
		AdjustedRelas:      layout.AdjustedRelas,
		RewrittenBytes:     len(out),
		RelaxRounds:        layout.RelaxRounds,
		PlaneMisses:        gst.PlaneMisses,
		InstrPasses:        instrStats[0],
		InstrInserted:      instrStats[1],
		InstrPayloadBytes:  instrStats[2],
	}
	feedMetrics(opts.Obs.Metrics(), stats)
	return &Result{
		Binary:     out,
		SPrime:     entries,
		InstrMarks: instrMarks,
		Graph:      g,
		Layout:     layout,
		Stats:      stats,
		Trace:      root,
	}, nil
}

// feedMetrics accumulates one rewrite's Stats into the registry, so a
// corpus run aggregates naturally. Nil-safe: a nil registry is a no-op.
func feedMetrics(reg *obs.Registry, s Stats) {
	reg.Counter("suri.rewrites").Inc()
	reg.Counter("suri.blocks").Add(int64(s.Blocks))
	reg.Counter("suri.entries").Add(int64(s.Entries))
	reg.Counter("suri.instructions").Add(int64(s.Instructions))
	reg.Counter("suri.copied_instructions").Add(int64(s.CopiedInstructions))
	reg.Counter("suri.added_instructions").Add(int64(s.AddedInstructions))
	reg.Counter("suri.code_pointers").Add(int64(s.CodePointers))
	reg.Counter("suri.pinned_pointers").Add(int64(s.PinnedPointers))
	reg.Counter("suri.tables").Add(int64(s.Tables))
	reg.Counter("suri.multi_base").Add(int64(s.MultiBase))
	reg.Counter("suri.table_entries").Add(int64(s.TableEntries))
	reg.Counter("suri.adjusted_relas").Add(int64(s.AdjustedRelas))
	reg.Counter("suri.rewritten_bytes").Add(int64(s.RewrittenBytes))
	reg.Counter("suri.relax_rounds").Add(int64(s.RelaxRounds))
	reg.Counter("suri.plane_misses").Add(int64(s.PlaneMisses))
	reg.Counter("instr_passes_run").Add(int64(s.InstrPasses))
	reg.Counter("instr_entries_inserted").Add(int64(s.InstrInserted))
	reg.Counter("instr_payload_bytes").Add(int64(s.InstrPayloadBytes))
}

// Render prints S' in GNU-as-like text for inspection. The .set pins
// are printed sorted by name so the rendering is deterministic (map
// iteration order must never leak into output).
func Render(entries []serialize.Entry, sets map[string]uint64) string {
	var prog asm.Program
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog.Sets = append(prog.Sets, asm.Set{Name: name, Addr: sets[name]})
	}
	sec := prog.Section(".suri.text", asm.Alloc|asm.Exec)
	for _, e := range entries {
		for _, l := range e.Labels {
			sec.L(l)
		}
		sec.Items = append(sec.Items, &asm.Ins{X: e.Inst, Sym: e.Target, Add: e.Addend})
	}
	return asm.Print(&prog)
}
