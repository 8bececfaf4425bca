package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/harden"
	"repro/internal/obs"
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
//
// The original binary's runs need nothing from the rewrite, so they go
// on a second goroutine as soon as the first attempt has parsed and
// scope-checked the input, overlapping the rest of the pipeline; the
// rewritten run on an input waits only for the original's run on it.
// That goroutine has exited by the time RewriteValidated returns.
func RewriteValidated(bin []byte, opts ValidateOptions) (*ValidatedResult, error) {
	inputs := opts.Inputs
	if len(inputs) == 0 {
		inputs = [][]byte{nil}
	}

	budgets := []harden.Budget{opts.Budget.WithDefaults(), opts.Budget.Widen()}
	var reason string
	attempts := 0
	// One validator for both attempts: the original binary's parsed
	// file, emulator machine, predecoded pages and completed runs carry
	// over across the retry and across every input.
	v := &validator{inputs: inputs, cancel: opts.Cancel, quit: make(chan struct{})}
	// Surface what the tiered engine did across every differential run —
	// both attempts, both binaries — on the request's metric registry
	// (-stats-json, /metrics, surimon). Deferred first, so it runs after
	// stop has joined the goroutine that owns the original's machine.
	defer func() { feedTierMetrics(opts.Obs.Metrics(), v.tierTotal()) }()
	defer v.stop()
	for i, budget := range budgets {
		attempts++
		ropts := opts.Options
		ropts.Budget = budget
		res, err := rewrite(bin, v.origF, ropts, func(f *elfx.File) { v.start(f, budget.EmuSteps) })
		if err == nil {
			err = v.validate(res.Binary, budget.EmuSteps)
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
// parsed once, by the pipeline, and executed on a single machine whose
// predecoded page planes survive emu.Reload (same image, same bias),
// and each attempt's rewritten binary likewise reuses one machine
// across all inputs.
//
// The original's runs execute in input order on a goroutine of their
// own, which alone touches origM until it has exited; it sends each
// run on results and closes results when it exits. It stops after the
// first failed run, between inputs once quit or cancel is closed, and
// otherwise after the last input.
type validator struct {
	inputs [][]byte
	cancel <-chan struct{}
	quit   chan struct{}

	origF *elfx.File
	origM *emu.Machine

	// results carries the running goroutine's runs, steps is the step
	// budget it runs them under, and received holds every run received
	// so far, indexed by input. Only the caller's goroutine touches
	// these.
	results  chan origRun
	steps    uint64
	received []origRun

	// tier accumulates the tiered-engine counters of retired rewritten-
	// binary machines (one per attempt); the long-lived origM is added in
	// tierTotal.
	tier emu.TierStats
}

// origRun is the original binary's run on one input, or the value of a
// panic that ended the goroutine.
type origRun struct {
	res      *emu.Result
	err      error
	panicked any
}

// start has the original's runs under way for an attempt with the
// given step budget. The first call starts them on f; a later one
// repeats a failed run under a changed budget.
func (v *validator) start(f *elfx.File, steps uint64) {
	if v.results == nil {
		v.origF = f
		v.launch(0, steps)
		return
	}
	v.rerunFailed(steps)
}

// launch starts the goroutine on inputs[from:].
func (v *validator) launch(from int, steps uint64) {
	v.steps = steps
	// One slot per run, so the goroutine never blocks on a send.
	v.results = make(chan origRun, len(v.inputs)-from)
	go v.runOriginals(from, steps, v.results)
}

// rerunFailed relaunches the runs from the last received one if it
// failed under a budget other than steps. Runs that completed are kept:
// the emulator is deterministic, so a run that finished within one
// budget finishes the same way within the wider one.
func (v *validator) rerunFailed(steps uint64) {
	n := len(v.received)
	if n == 0 || v.received[n-1].err == nil || v.steps == steps {
		return
	}
	v.join() // the goroutine stopped after the failed run
	v.received = v.received[:n-1]
	v.launch(n-1, steps)
}

// runOriginals runs the original on inputs[from:] in order, sending
// each run on results.
func (v *validator) runOriginals(from int, steps uint64, results chan<- origRun) {
	defer close(results)
	// Hand a panic to the caller's goroutine, which raises it again where
	// the caller can recover it (the farm turns a job's panic into an
	// error). The panicking run sent nothing, so its slot is free.
	defer func() {
		if p := recover(); p != nil {
			results <- origRun{panicked: p}
		}
	}()
	for _, in := range v.inputs[from:] {
		select {
		case <-v.quit:
			return
		case <-v.cancel:
			return
		default:
		}
		res, err := runOn(&v.origM, v.origF, emu.Options{Input: in, MaxSteps: steps})
		results <- origRun{res: res, err: err}
		if err != nil {
			return
		}
	}
}

// original returns the original's run on input i under the step budget
// steps, waiting for it if it has not finished yet.
func (v *validator) original(i int, steps uint64) (*emu.Result, error) {
	for {
		for len(v.received) <= i {
			r, ok := <-v.results
			if !ok {
				// The goroutine stops short of a run only when canceled.
				return nil, harden.ErrCanceled
			}
			if r.panicked != nil {
				panic(r.panicked)
			}
			v.received = append(v.received, r)
		}
		if r := v.received[i]; r.err == nil || v.steps == steps {
			return r.res, r.err
		}
		v.rerunFailed(steps)
	}
}

// stop makes the goroutine skip the remaining inputs and waits for it to
// exit. It runs once, when RewriteValidated returns.
func (v *validator) stop() {
	close(v.quit)
	v.join()
}

// join waits for the goroutine to exit, discarding the runs nobody
// asked for; a panic among them is raised again here.
func (v *validator) join() {
	if v.results == nil {
		return
	}
	for r := range v.results {
		if r.panicked != nil {
			panic(r.panicked)
		}
	}
}

// tierTotal sums the tiered-engine counters over every machine the
// validator ran. Call it only after stop.
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
func (v *validator) validate(rewritten []byte, emuSteps uint64) error {
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
	for i, in := range v.inputs {
		a, err := v.original(i, emuSteps)
		if err != nil {
			return fmt.Errorf("suri: validate: original binary: %w", err)
		}
		// Bound the rewritten run by a generous multiple of the
		// original's work: a mis-symbolized binary can loop forever, and
		// this turns that into a quick typed failure.
		b, err := runOn(&rewrittenM, rf, emu.Options{Input: in, MaxSteps: a.Steps*10 + 1_000_000})
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
// zeros (interpreter-forced runs) still registers the series, so
// /metrics exports are stable. Nil-safe.
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
