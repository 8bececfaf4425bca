package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/harden"
	"repro/internal/obs"

	// Link the tiered execution engine into every binary that validates:
	// emu.EngineAuto then resolves to it, so differential validation runs
	// at translated-superblock speed by default. The engine is
	// parity-tested bit-identical to the interpreter; ValidateOptions.
	// Engine forces the interpreter for A/B measurement.
	_ "repro/internal/emu/tiered"
)

// Verdict is the machine-readable outcome of a validated rewrite.
type Verdict string

// Verdicts, from best to worst.
const (
	// VerdictValidated: the first rewrite attempt succeeded and the
	// rewritten binary matched the original's behaviour on every input.
	VerdictValidated Verdict = "validated"

	// VerdictDegraded: the first attempt failed or diverged, but a retry
	// under a widened over-approximation budget produced a validated
	// binary.
	VerdictDegraded Verdict = "degraded"

	// VerdictFallback: no attempt produced a validated binary; the
	// original bytes are returned unchanged (behaviour trivially
	// preserved).
	VerdictFallback Verdict = "fallback"
)

// ValidateOptions configure RewriteValidated.
type ValidateOptions struct {
	// Options are the pipeline options of each rewrite attempt. The
	// Budget is widened (×4 per bound) for the retry attempt.
	Options

	// Inputs are the byte streams served to the emulated read syscall,
	// one differential execution per stream. Empty means a single run
	// with no input.
	Inputs [][]byte

	// Engine selects the differential executions' emulator engine:
	// EngineAuto (the default) runs the tiered superblock engine linked
	// in above, EngineInterpreter forces the plane-fetch interpreter
	// (the engine A/B baseline).
	Engine emu.EngineKind
}

// ValidatedResult is the outcome of a guarded rewrite.
type ValidatedResult struct {
	// Verdict classifies the outcome.
	Verdict Verdict

	// Binary is the rewritten image for validated/degraded verdicts, and
	// the original image, byte for byte, on fallback.
	Binary []byte

	// Result is the successful pipeline result backing Binary; nil on
	// fallback.
	Result *Result

	// Attempts counts pipeline runs (1 = validated first try).
	Attempts int

	// Reason explains any verdict below validated: the stage error or
	// the first divergence. Empty for validated.
	Reason string
}

// RewriteValidated is the guarded rewrite mode: it runs the pipeline,
// differentially executes the original and rewritten binaries in the
// emulator on every input, and degrades gracefully instead of failing —
// first retrying with the over-approximation budget widened, then
// falling back to the original binary. Pipeline failures, budget
// exhaustion, and behavioural divergence all end in a usable binary and
// a Verdict; the only error returned is cancellation, where the caller
// has already gone away.
func RewriteValidated(bin []byte, opts ValidateOptions) (*ValidatedResult, error) {
	inputs := opts.Inputs
	if len(inputs) == 0 {
		inputs = [][]byte{nil}
	}

	budgets := []harden.Budget{opts.Budget.WithDefaults(), opts.Budget.Widen()}
	var reason string
	attempts := 0
	// One validator for both attempts: the original binary's parsed
	// file, emulator machine, and predecoded pages carry over across the
	// retry and across every input.
	v := &validator{orig: bin, engine: opts.Engine}
	// Surface what the tiered engine did across every differential run —
	// both attempts, both binaries — on the request's metric registry
	// (-stats-json, /metrics, surimon).
	defer func() { feedTierMetrics(opts.Obs.Metrics(), v.tierTotal()) }()
	for i, budget := range budgets {
		attempts++
		ropts := opts.Options
		ropts.Budget = budget
		res, err := Rewrite(bin, ropts)
		if err == nil {
			err = v.validate(res.Binary, inputs, budget.EmuSteps)
			if err == nil {
				verdict := VerdictValidated
				if i > 0 {
					verdict = VerdictDegraded
				}
				opts.Obs.Record(obs.Event{Kind: "verdict", Detail: string(verdict)})
				return &ValidatedResult{
					Verdict:  verdict,
					Binary:   res.Binary,
					Result:   res,
					Attempts: i + 1,
					Reason:   reason,
				}, nil
			}
		}
		if canceled(opts.Cancel) {
			return nil, fmt.Errorf("suri: validated rewrite: %w", harden.ErrCanceled)
		}
		if reason == "" {
			reason = err.Error()
		}
		// A deterministic scope rejection or parse error cannot improve
		// under a wider budget; skip the pointless retry.
		if errors.Is(err, ErrNotCETPIE) || Stage(err) == "elf" {
			break
		}
	}
	opts.Obs.Record(obs.Event{Kind: "verdict", Detail: string(VerdictFallback) + ": " + reason})
	return &ValidatedResult{
		Verdict:  VerdictFallback,
		Binary:   bin,
		Attempts: attempts,
		Reason:   reason,
	}, nil
}

func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// validator runs the differential executions of a guarded rewrite. It
// amortizes setup across attempts and inputs: the original binary is
// parsed once and executed on a single machine whose predecoded page
// planes survive emu.Reload (same image, same bias), and each attempt's
// rewritten binary likewise reuses one machine across all inputs.
type validator struct {
	orig   []byte
	engine emu.EngineKind

	origF *elfx.File
	origM *emu.Machine

	// tier accumulates the tiered-engine counters of retired rewritten-
	// binary machines (one per attempt); the long-lived origM is added in
	// tierTotal.
	tier emu.TierStats
}

// tierTotal sums the tiered-engine counters over every machine the
// validator ran.
func (v *validator) tierTotal() emu.TierStats {
	t := v.tier
	if ts := v.origM.TierStats(); ts != nil {
		t.Add(*ts)
	}
	return t
}

// validate differentially executes the original and rewritten binaries
// on each input, requiring identical stdout and exit status. An
// original that cannot run under the emulator makes behaviour
// preservation unprovable, which is reported as a failure — the caller
// falls back to the original, the only binary known to be correct.
func (v *validator) validate(rewritten []byte, inputs [][]byte, emuSteps uint64) error {
	if v.origF == nil {
		f, err := elfx.Read(v.orig)
		if err != nil {
			return fmt.Errorf("suri: validate: original binary: %w", err)
		}
		v.origF = f
	}
	rf, err := elfx.Read(rewritten)
	if err != nil {
		return fmt.Errorf("suri: validate: rewritten binary: %w", err)
	}
	var rewrittenM *emu.Machine
	// The rewritten machine dies with this attempt; bank its tiered
	// counters (including on early divergence returns).
	defer func() {
		if ts := rewrittenM.TierStats(); ts != nil {
			v.tier.Add(*ts)
		}
	}()
	for _, in := range inputs {
		a, err := runOn(&v.origM, v.origF, emu.Options{Input: in, MaxSteps: emuSteps, Engine: v.engine})
		if err != nil {
			return fmt.Errorf("suri: validate: original binary: %w", err)
		}
		// Bound the rewritten run by a generous multiple of the
		// original's work: a mis-symbolized binary can loop forever, and
		// this turns that into a quick typed failure.
		b, err := runOn(&rewrittenM, rf, emu.Options{Input: in, MaxSteps: a.Steps*10 + 1_000_000, Engine: v.engine})
		if err != nil {
			return fmt.Errorf("suri: validate: rewritten binary: %w", err)
		}
		if a.Exit != b.Exit {
			return fmt.Errorf("suri: validate: exit status diverged (%d vs %d)", a.Exit, b.Exit)
		}
		if !bytes.Equal(a.Stdout, b.Stdout) {
			return fmt.Errorf("suri: validate: stdout diverged (%d vs %d bytes)", len(a.Stdout), len(b.Stdout))
		}
	}
	return nil
}

// feedTierMetrics publishes one validated rewrite's tiered-engine
// counters into the metric registry under the emu.tier_* series. All
// zeros (interpreter-forced runs, or no tiered engine linked) still
// registers the series, so /metrics exports are stable. Nil-safe.
func feedTierMetrics(reg *obs.Registry, t emu.TierStats) {
	reg.Counter("emu.tier_translations").Add(int64(t.Translations))
	reg.Counter("emu.tier_trans_insts").Add(int64(t.TransInsts))
	reg.Counter("emu.tier_blocks").Add(int64(t.Blocks))
	reg.Counter("emu.tier_steps").Add(int64(t.TierSteps))
	reg.Counter("emu.tier_cache_hits").Add(int64(t.CacheHits))
	reg.Counter("emu.tier_cache_misses").Add(int64(t.CacheMisses))
	reg.Counter("emu.tier_invalidations").Add(int64(t.Invalidations))
	reg.Counter("emu.tier_guard_budget").Add(int64(t.GuardBudget))
	reg.Counter("emu.tier_guard_cet").Add(int64(t.GuardCET))
	for reason, n := range t.ExitsByReason() {
		reg.Counter("emu.tier_exits." + reason).Add(int64(n))
	}
}

// runOn executes f to completion on *slot, loading a fresh machine on
// first use and Reload-ing (planes preserved) thereafter.
func runOn(slot **emu.Machine, f *elfx.File, opts emu.Options) (*emu.Result, error) {
	m := *slot
	if m == nil {
		var err error
		m, err = emu.LoadFile(f, opts)
		if err != nil {
			return nil, err
		}
		*slot = m
	} else if err := emu.Reload(m, f, opts); err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	_, code := m.Exited()
	return &emu.Result{Stdout: m.Stdout, Stderr: m.Stderr, Exit: code, Steps: m.Steps, Prof: m.Prof}, nil
}
