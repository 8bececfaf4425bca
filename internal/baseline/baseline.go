// Package baseline defines the shared surface of the comparison
// reassemblers (§4.1.3): the Ddisasm-like heuristic rewriter and the
// Egalito-like metadata-driven rewriter. Both rediscover the published
// failure modes of their real counterparts organically — from their
// policies, not from injected faults.
package baseline

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/serialize"
)

// Entry aliases the serialized-code element shared with the SURI
// pipeline.
type Entry = serialize.Entry

// Result is a completed baseline rewrite.
type Result struct {
	Binary []byte
}

// Rewriter is a binary rewriter comparable to SURI.
type Rewriter interface {
	// Name identifies the tool in evaluation tables.
	Name() string

	// Rewrite rewrites a binary image or fails (completion-rate metric).
	Rewrite(bin []byte) (*Result, error)
}

// AttachLabelAt gives the serialized entry copying the original
// instruction at addr an extra label, interned in syms, and returns it.
// The second result is false when addr is not an instruction boundary in
// the stream — the "invalid label" condition real reassemblers report.
func AttachLabelAt(entries []Entry, syms *asm.Symtab, index map[uint64]int, addr uint64) (asm.Sym, bool) {
	i, ok := index[addr]
	if !ok {
		return 0, false
	}
	lbl := syms.Intern(fmt.Sprintf("LD_%x", addr))
	for l := entries[i].Label; l != 0; l = syms.Next(l) {
		if l == lbl {
			return lbl, true
		}
	}
	entries[i].AddLabel(syms, lbl)
	return lbl, true
}

// IndexByAddr maps original instruction addresses to entry indices.
func IndexByAddr(entries []Entry) map[uint64]int {
	out := make(map[uint64]int, len(entries))
	for i, e := range entries {
		if !e.Synth && e.Addr != 0 {
			out[e.Addr] = i
		}
	}
	return out
}

// OverlapError reports byte-overlapping blocks, which single-
// interpretation reassemblers cannot represent in their output assembly.
func OverlapError(g *cfg.Graph) error {
	blocks := g.SortedBlocks()
	for i := 1; i < len(blocks); i++ {
		prev := blocks[i-1]
		if prev.End() > blocks[i].Addr {
			return fmt.Errorf("conflicting code interpretations at %#x and %#x",
				prev.Addr, blocks[i].Addr)
		}
	}
	return nil
}
