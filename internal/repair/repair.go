// Package repair implements SURI's Pointer Repairer (§3.4): every
// RIP-relative reference in the copied code is classified by the CET
// byte-pattern test. References to an endbr64 instruction are genuine
// code pointers and are symbolized into the rewritten code; everything
// else — data references and the temporary pointers of composite
// expressions (Figures 1 and 2) — is pinned to the preserved original
// layout with a ".set" absolute label, so its runtime value is exactly
// what the compiler intended.
package repair

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/harden"
	"repro/internal/serialize"
)

// Result reports what the repairer did; CodePointers and Pinned feed the
// §4.2.4 audit.
type Result struct {
	// Sets are the absolute-label definitions for pinned references.
	Sets map[string]uint64

	// CodePointers counts references classified as code (endbr64 target).
	CodePointers int

	// Pinned counts references pinned to the original layout.
	Pinned int
}

// OrigLabel names the pinned absolute label for an original address.
func OrigLabel(addr uint64) string { return "LO_" + strconv.FormatUint(addr, 16) }

// Repair symbolizes every RIP-relative memory operand in the entries.
// Direct branches were already symbolized by the serializer. The entries
// are modified in place; their labels go into g.Syms, the stream's
// symbol table.
func Repair(entries []serialize.Entry, g *cfg.Graph) (*Result, error) {
	if err := harden.Inject(harden.FPRepair); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	res := &Result{Sets: make(map[string]uint64)}
	// pinned remembers each pinned target's label: a binary pins many
	// references to few addresses, so each label is formatted once.
	pinned := make(map[uint64]asm.Sym)
	for i := range entries {
		e := &entries[i]
		if e.Synth || e.Target != 0 {
			continue
		}
		target, ok := e.Inst.RipTarget(e.Addr, int(e.Size))
		if !ok {
			continue
		}
		if cfg.IsEndbr(g.File, target) {
			if _, known := g.Blocks[target]; known {
				// A genuine code pointer: reference the copied code.
				e.Target = serialize.Label(g.Syms, target)
				res.CodePointers++
				continue
			}
			// endbr64 byte pattern outside any known block (§5.1): treat
			// as data and pin — the conservative choice.
		}
		s, ok := pinned[target]
		if !ok {
			lbl := OrigLabel(target)
			res.Sets[lbl] = target
			s = g.Syms.Intern(lbl)
			pinned[target] = s
		}
		e.Target = s
		res.Pinned++
	}
	return res, nil
}

// Audit re-checks the §4.2.4 claim over repaired entries: every operand
// symbolized into the new code must target an endbr64 in the original
// binary. It returns the number of verified code pointers.
func Audit(entries []serialize.Entry, g *cfg.Graph) (int, error) {
	if err := harden.Inject(harden.FPAudit); err != nil {
		return 0, fmt.Errorf("audit: %w", err)
	}
	n := 0
	for i := range entries {
		e := &entries[i]
		if e.Synth || e.Target == 0 {
			continue
		}
		// Direct branches are not pointer material: only RIP-relative
		// operands are.
		target, ok := e.Inst.RipTarget(e.Addr, int(e.Size))
		if !ok || !strings.HasPrefix(g.Syms.Name(e.Target), "LC_") {
			continue
		}
		if !cfg.IsEndbr(g.File, target) {
			return n, fmt.Errorf("repair: audit failure: %#x symbolized as code but is not endbr64", target)
		}
		n++
	}
	return n, nil
}
