// Package suri is a Go reproduction of "Towards Sound Reassembly of
// Modern x86-64 Binaries" (Kim, Kim, Cha — ASPLOS 2025): the SURI
// reassembler for CET-enabled x86-64 PIE binaries, together with every
// substrate the system needs — an x86-64 encoder/decoder, an assembler,
// an ELF64 reader/writer, a compiler producing CET/PIE binaries from a
// small C-like language, an emulator with CET enforcement, two baseline
// reassemblers, and the paper's full evaluation harness.
//
// The headline API is Rewrite: it takes the bytes of a CET-enabled PIE
// binary and returns a rewritten binary whose original sections are
// preserved at their original addresses, whose code has been copied,
// symbolized, and (optionally) instrumented, and which behaves exactly
// like the original.
//
//	out, err := suri.Rewrite(binary, suri.Options{})
//
// Instrumentation inserts code into S', the symbolized assembly stream:
//
//	out, err := suri.Rewrite(binary, suri.Options{
//		Instrument: func(entries []suri.Entry, syms *suri.Symtab) ([]suri.Entry, error) {
//			// insert, e.g., counters before instructions
//			return entries, nil
//		},
//	})
//
// See the examples/ directory for runnable end-to-end programs and
// DESIGN.md for the system inventory.
package suri

import (
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/harden"
	"repro/internal/instr"
	"repro/internal/obs"
	"repro/internal/serialize"
)

// Entry is one element of the symbolized assembly stream S' (§3.3–3.5 of
// the paper). Instrumenters receive and return slices of entries.
type Entry = serialize.Entry

// Symtab is the symbol table of an S' stream: entry labels and symbolic
// operands are its IDs (asm.Sym), and instrumenters intern new labels
// in it.
type Symtab = asm.Symtab

// Options configure a rewrite. The zero value is the standard pipeline.
type Options = core.Options

// Result is a completed rewrite: the binary, the final S' stream, the
// superset CFG, and the pipeline statistics of §4.2.4/§4.3.1.
type Result = core.Result

// Stats aggregates pipeline measurements.
type Stats = core.Stats

// Instrumenter edits S' before emission. It is the raw escape hatch;
// prefer composable Pass values (Options.Passes), which are validated,
// budgeted, and cacheable.
type Instrumenter = core.Instrumenter

// Pass is one composable instrumentation pass over S'. Set
// Options.Passes to run passes inside the pipeline's instrument stage:
//
//	passes, _ := suri.ParsePasses("coverage,shadowstack")
//	out, err := suri.Rewrite(binary, suri.Options{Passes: passes})
//
// The standard library passes are CoveragePass, CountersPass,
// CallTracePass, and ShadowStackPass; custom passes implement the
// interface directly (see internal/instr for the contract).
type Pass = instr.Pass

// CoveragePass is the AFL-style coverage bitmap pass (edge coverage by
// default; Blocks selects per-block coverage).
type CoveragePass = instr.Coverage

// CountersPass counts basic-block executions in a payload array.
type CountersPass = instr.Counters

// CallTracePass records, per indirect call/jump site, how many times it
// fired and the last target it reached.
type CallTracePass = instr.CallTrace

// ShadowStackPass maintains a software shadow stack and kills the
// program (exit 135, "=SS=" on stderr) on a return-address mismatch.
type ShadowStackPass = instr.ShadowStack

// ParsePasses resolves a comma-separated list of standard pass names
// ("coverage", "counters", "calltrace", "shadowstack") into Pass values;
// it is the parser behind suri -instrument and surid ?instrument=.
func ParsePasses(list string) ([]Pass, error) { return instr.ParseList(list) }

// PassNames returns the standard pass names ParsePasses accepts, sorted.
func PassNames() []string { return instr.Names() }

// ErrNotCETPIE is returned for binaries outside the problem scope (§2.1).
var ErrNotCETPIE = core.ErrNotCETPIE

// Rewrite runs the full SURI pipeline (Figure 4) over an ELF binary
// image: superset CFG construction, serialization, CET-based pointer
// repair, superset symbolization, optional instrumentation, and
// layout-preserving emission.
func Rewrite(bin []byte, opts Options) (*Result, error) {
	return core.Rewrite(bin, opts)
}

// TrapLabel is the landing pad label for bogus jump-table targets; it is
// available to instrumenters that synthesize branches.
const TrapLabel = serialize.TrapLabel

// StageError tags a pipeline failure with the Figure 4 stage that died;
// Stage extracts the stage name from any error chain.
type StageError = core.StageError

// Stage returns the pipeline stage recorded in err's chain, or "".
func Stage(err error) string { return core.Stage(err) }

// Pool is a bounded FIFO worker pool for running many rewrites
// concurrently; see NewPool.
type Pool = farm.Pool

// PoolConfig configures a Pool.
type PoolConfig = farm.Config

// Cache is a content-addressed rewrite-artifact cache (SHA-256 of the
// input binary + options fingerprint) with LRU eviction and optional
// disk persistence; see NewCache.
type Cache = farm.Cache

// RewriteResult is a farm-served rewrite (binary, stats, cache
// provenance).
type RewriteResult = farm.RewriteResult

// NewPool starts a rewrite farm:
//
//	pool := suri.NewPool(suri.PoolConfig{Workers: 8, Cache: cache})
//	defer pool.Close()
//	res, err := pool.Rewrite(ctx, binary, suri.Options{})
//
// Jobs run under the caller's context (a canceled or expired job that
// has not started is skipped), with panic isolation and queue
// backpressure; cmd/surid serves this same pool over HTTP.
func NewPool(cfg PoolConfig) *Pool { return farm.New(cfg) }

// NewCache returns an artifact cache holding maxEntries rewrites in
// memory (LRU); a non-empty dir enables write-through disk persistence.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	return farm.NewCache(maxEntries, dir)
}

// Budget bounds the pipeline's resource consumption (CFG rounds, decoded
// instructions, blocks, jump-table entries, emulator steps). The zero
// value means "defaults": generous bounds that real binaries never hit
// but that stop runaway inputs deterministically.
type Budget = harden.Budget

// BudgetExceeded is the typed error a governor returns when a Budget
// bound is crossed; errors.Is(err, ErrBudget) matches any resource.
type BudgetExceeded = harden.BudgetExceeded

// ErrBudget matches any budget exhaustion; ErrCanceled matches the
// wall-clock variant (a canceled Options.Cancel channel).
var (
	ErrBudget   = harden.ErrBudget
	ErrCanceled = harden.ErrCanceled
)

// Verdict classifies a validated rewrite: "validated" (first attempt
// passed differential execution), "degraded" (a retry under widened
// budgets passed), or "fallback" (the original binary was returned
// unmodified because no attempt produced a validated rewrite).
type Verdict = core.Verdict

// Verdict values.
const (
	VerdictValidated = core.VerdictValidated
	VerdictDegraded  = core.VerdictDegraded
	VerdictFallback  = core.VerdictFallback
)

// ValidateOptions configure RewriteValidated: the pipeline Options plus
// the input vectors to differentially execute under.
type ValidateOptions = core.ValidateOptions

// ValidatedResult is a guarded rewrite outcome: the binary to ship
// (original bytes on fallback), the verdict, and attempt accounting.
type ValidatedResult = core.ValidatedResult

// Collector is the observability bundle Options.Obs accepts: a span
// trace, a metric registry, and an optional flight recorder. A nil
// *Collector disables all collection at zero cost; EnableFlight
// attaches the bounded always-on event ring a service wants for crash
// forensics.
type Collector = obs.Collector

// FlightEvent is one structured flight-recorder entry (stage
// completions, stage errors, budget trips, cache probes, verdicts).
type FlightEvent = obs.Event

// NewCollector returns a live collector on the system monotonic clock:
//
//	col := suri.NewCollector().EnableFlight(4096)
//	out, err := suri.Rewrite(binary, suri.Options{Obs: col})
//	fmt.Print(col.Text()) // per-stage spans + pipeline metrics
func NewCollector() *Collector { return obs.New() }

// RewriteValidated is Rewrite with a safety net: it differentially
// executes the rewritten binary against the original in the emulator,
// retries under widened budgets on failure, and — if no attempt
// validates — returns the original binary unmodified with the fallback
// verdict. It never makes the caller worse off than not rewriting.
func RewriteValidated(bin []byte, opts ValidateOptions) (*ValidatedResult, error) {
	return core.RewriteValidated(bin, opts)
}
