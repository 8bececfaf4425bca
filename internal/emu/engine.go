package emu

import (
	"fmt"

	"repro/internal/x86"
)

// EngineKind selects the execution engine for a run.
//
// The machine always carries the interpreter; the tiered engine
// (internal/emu/tiered) registers itself via RegisterTiered when linked
// in, and EngineAuto resolves to it. The interpreter remains the
// semantic ground truth: the tiered engine falls back to it instruction
// by instruction wherever translation does not apply, and parity tests
// pin the two engines to bit-identical results.
type EngineKind int

const (
	// EngineAuto runs the tiered engine when one is linked in,
	// otherwise the interpreter. This is the default.
	EngineAuto EngineKind = iota
	// EngineInterpreter forces the plane-fetch interpreter loop.
	EngineInterpreter
	// EngineTiered requires the tiered engine; Run fails if none is
	// linked into the binary.
	EngineTiered
)

// String returns the flag spelling of the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineInterpreter:
		return "interpreter"
	case EngineTiered:
		return "tiered"
	}
	return "auto"
}

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "interpreter", "interp":
		return EngineInterpreter, nil
	case "tiered":
		return EngineTiered, nil
	}
	return EngineAuto, fmt.Errorf("emu: unknown engine %q (want auto, interpreter, or tiered)", s)
}

// tieredRunFn is the registered tiered engine entry point: it drives m
// to completion with interpreter-identical semantics.
var tieredRunFn func(m *Machine) error

// RegisterTiered installs the tiered execution engine. Called from the
// tiered package's init; the indirection exists because the tiered
// engine imports emu (for the machine, the interpreter fallback, and
// the memory model), so emu cannot import it back.
func RegisterTiered(run func(m *Machine) error) { tieredRunFn = run }

// TieredAvailable reports whether a tiered engine is linked in.
func TieredAvailable() bool { return tieredRunFn != nil }

// TierStats counts what the tiered engine did during a run. All zeros
// when the run was interpreted.
type TierStats struct {
	// Translations is the number of superblocks lifted to micro-op
	// closures; TransInsts the instructions they cover.
	Translations uint64 `json:"translations"`
	TransInsts   uint64 `json:"trans_insts"`

	// Blocks counts translated-block executions, TierSteps the
	// instructions retired inside them (the remainder up to
	// Result.Steps ran in the interpreter).
	Blocks    uint64 `json:"blocks"`
	TierSteps uint64 `json:"tier_steps"`

	// CacheHits are block lookups served by the translation cache;
	// CacheMisses fell through to the interpreter (cold, still
	// warming, or untranslatable). Invalidations counts cache flushes
	// from plane invalidation (image or bias change on reload).
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Invalidations uint64 `json:"invalidations"`

	// Exit reasons for translated-block executions.
	ExitFall   uint64 `json:"exit_fall"`   // ran to the block's fall-through end
	ExitBranch uint64 `json:"exit_branch"` // ended at the block's final transfer
	ExitSide   uint64 `json:"exit_side"`   // left mid-block on a taken jcc
	ExitError  uint64 `json:"exit_error"`  // fault, CET violation, or exec error
	ExitExit   uint64 `json:"exit_exit"`   // program exited inside the block

	// GuardBudget counts blocks skipped because the step budget could
	// expire inside them (those instructions single-step instead);
	// GuardCET counts block entries deferred to the interpreter for a
	// pending endbr64 check (its counters and violation error are the
	// ground truth).
	GuardBudget uint64 `json:"guard_budget"`
	GuardCET    uint64 `json:"guard_cet"`
}

// ExitsByReason returns the exit counters keyed by reason name, for
// metrics export.
func (t *TierStats) ExitsByReason() map[string]uint64 {
	return map[string]uint64{
		"fall":   t.ExitFall,
		"branch": t.ExitBranch,
		"side":   t.ExitSide,
		"error":  t.ExitError,
		"exit":   t.ExitExit,
	}
}

// Add accumulates o into t.
func (t *TierStats) Add(o TierStats) {
	t.Translations += o.Translations
	t.TransInsts += o.TransInsts
	t.Blocks += o.Blocks
	t.TierSteps += o.TierSteps
	t.CacheHits += o.CacheHits
	t.CacheMisses += o.CacheMisses
	t.Invalidations += o.Invalidations
	t.ExitFall += o.ExitFall
	t.ExitBranch += o.ExitBranch
	t.ExitSide += o.ExitSide
	t.ExitError += o.ExitError
	t.ExitExit += o.ExitExit
	t.GuardBudget += o.GuardBudget
	t.GuardCET += o.GuardCET
}

// tierReporter is implemented by the tiered engine's per-machine state
// so the machine can surface run statistics without knowing the
// engine's types.
type tierReporter interface{ TierStats() TierStats }

// TierStats returns the tiered engine's counters for this machine, or
// nil when no tiered state exists (interpreted or nil machines).
func (m *Machine) TierStats() *TierStats {
	if m == nil {
		return nil
	}
	if r, ok := m.engineState.(tierReporter); ok {
		s := r.TierStats()
		return &s
	}
	return nil
}

// EngineState returns the opaque per-machine state owned by the
// registered tiered engine. It survives Reset so translations persist
// across Reload of the same image.
func (m *Machine) EngineState() any { return m.engineState }

// SetEngineState installs the tiered engine's per-machine state.
func (m *Machine) SetEngineState(s any) { m.engineState = s }

// PlaneVersion identifies the current generation of the machine's
// decode planes. InvalidatePlanes bumps it; anything keyed on decoded
// bytes (the tiered translation cache) must revalidate against it.
func (m *Machine) PlaneVersion() uint64 { return m.planeVersion }

// InvalidatePlanes drops the page decode planes and bumps the plane
// version so downstream caches (tiered translations) drop theirs too.
// Reload calls this when it detects a different image or bias; tests
// use it to simulate decode invalidation between runs.
func (m *Machine) InvalidatePlanes() {
	m.planes = make(map[uint64]*x86.Plane)
	m.planeVersion++
}

// HeatSeed returns the block-heat seed installed by Options.HeatSeed:
// runtime addresses (load bias applied) mapped to observed execution
// counts from a prior profiled run. The tiered engine folds these into
// its translation trigger so known-hot blocks translate immediately.
func (m *Machine) HeatSeed() map[uint64]uint64 { return m.heatSeed }

// SetHeatSeed installs a heat seed directly on the machine —
// Options.HeatSeed is the loader route; this one serves hand-built
// machines (tests, tools).
func (m *Machine) SetHeatSeed(s map[uint64]uint64) { m.heatSeed = s }

// FetchInst decodes the instruction at addr through the machine's
// fetch path (the page plane, or a ranged fetch for instructions it
// cannot serve) without executing it. The error is the raw fetch error,
// without the "at <addr>" prefix Run adds.
func (m *Machine) FetchInst(addr uint64) (x86.Inst, int, error) {
	return m.fetch(addr)
}

// PagePlaneAt returns the decode plane of the executable page at
// page-aligned address pa, building it on first touch, or nil when the
// page is unmapped or not executable.
func (m *Machine) PagePlaneAt(pa uint64) *x86.Plane { return m.pagePlane(pa) }

// DoSyscall executes the syscall the machine's RIP has just advanced
// past, exactly as the interpreter's SYSCALL case does (RCX/R11
// clobbers, profile log, exit latch). The tiered engine's syscall
// micro-op calls this after setting RIP to the next instruction.
func (m *Machine) DoSyscall() error { return m.syscall() }

// ExecInst executes one already-decoded instruction with full
// interpreter semantics: RIP must point at the instruction, and size
// must be its encoded length. It is the tiered engine's generic
// micro-op — any instruction without a specialized closure runs
// through the same code path the interpreter uses, so the two engines
// cannot diverge on it. The returned error is raw (unwrapped).
func (m *Machine) ExecInst(in x86.Inst, size int) error { return m.exec(in, size) }

// EndbrPending reports whether the previous instruction was an
// indirect branch that arms the CET endbr64 check.
func (m *Machine) EndbrPending() bool { return m.expectEndbr }

// SetEndbrPending arms or clears the CET endbr64 check.
func (m *Machine) SetEndbrPending(v bool) { m.expectEndbr = v }

// ProfSeq returns the fall-through address of the last profiled
// instruction (block-leader detection state).
func (m *Machine) ProfSeq() uint64 { return m.profSeq }

// SetProfSeq sets the profiled fall-through address.
func (m *Machine) SetProfSeq(v uint64) { m.profSeq = v }

// ShadowDepth returns the CET shadow stack depth.
func (m *Machine) ShadowDepth() int { return len(m.shadow) }

// ShadowPush pushes a return address onto the CET shadow stack.
func (m *Machine) ShadowPush(v uint64) { m.shadow = append(m.shadow, v) }

// ShadowPop pops the CET shadow stack; ok is false on underflow.
func (m *Machine) ShadowPop() (v uint64, ok bool) {
	if len(m.shadow) == 0 {
		return 0, false
	}
	v = m.shadow[len(m.shadow)-1]
	m.shadow = m.shadow[:len(m.shadow)-1]
	return v, true
}
