package emu

import (
	"fmt"

	"repro/internal/x86"
)

// EngineKind selects the execution engine for a run.
//
// The interpreter (Step) is the semantic ground truth. The tiered
// engine (tiered.go) runs translated superblocks and falls back to it
// instruction by instruction wherever translation does not apply;
// parity tests pin the two engines to bit-identical results.
type EngineKind int

const (
	// EngineTiered runs the tiered superblock engine. This is the
	// default.
	EngineTiered EngineKind = iota
	// EngineInterpreter forces the interpreter, one Step at a time.
	EngineInterpreter
)

// String returns the flag spelling of the engine kind.
func (k EngineKind) String() string {
	if k == EngineInterpreter {
		return "interpreter"
	}
	return "tiered"
}

// ParseEngine parses a -engine flag value. "auto" and the empty string
// name the default, the tiered engine.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "auto", "tiered":
		return EngineTiered, nil
	case "interpreter", "interp":
		return EngineInterpreter, nil
	}
	return EngineTiered, fmt.Errorf("emu: unknown engine %q (want auto, interpreter, or tiered)", s)
}

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

	// CacheHits are leader lookups that found a translated block;
	// CacheMisses found none and fell through to the interpreter: a
	// cold leader still below the translation threshold (its
	// straight-line run steps), or a negative entry whose first
	// instruction the translator declines (one step). Invalidations
	// counts cache flushes from plane invalidation (image or bias
	// change on reload).
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
	// expire inside them (one instruction steps instead); GuardCET
	// counts indirect-branch entries into a block that does not start
	// with endbr64, deferred to one interpreter step, which raises the
	// missing-endbr64 violation. A block that starts with endbr64
	// performs a pending check itself and is not counted.
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

// TierStats returns the tiered engine's counters for this machine, or
// nil when it has never run tiered (interpreted or nil machines).
func (m *Machine) TierStats() *TierStats {
	if m == nil || m.tier == nil {
		return nil
	}
	s := m.tier.stats
	return &s
}

// InvalidatePlanes drops the page decode planes and bumps the plane
// version so the tiered translation cache drops its blocks too.
// Reload calls this when it detects a different image or bias; tests
// use it to simulate decode invalidation between runs.
func (m *Machine) InvalidatePlanes() {
	m.planes = make(map[uint64]*x86.Plane)
	m.planeVersion++
	m.stepPage, m.stepPlane = 0, nil
}

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
