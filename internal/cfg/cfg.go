// Package cfg implements SURI's Superset CFG Builder (§3.2): recursive
// disassembly from harvested entry points, over-approximation of jump
// tables and their targets, and merging of overlapping basic blocks
// (Figure 5). A superset CFG contains every block and edge the original
// program can execute, plus possibly bogus blocks and edges that are
// never executed and therefore cannot affect the rewritten binary.
package cfg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/asm"
	"repro/internal/elfx"
	"repro/internal/x86"
)

// Block is a basic block of the superset CFG. Insts and Sizes are
// windows of the build's instruction arena, capped at their length, so
// appending to them copies.
type Block struct {
	Addr  uint64
	Insts []x86.Inst
	Sizes []uint8 // encoded lengths; an x86-64 instruction is at most 15 bytes

	// Succs are direct control-flow successor addresses (branch targets
	// and jump-table targets), excluding fall-through and call targets.
	Succs []uint64

	// Fall is the fall-through successor (the block ends in a
	// conditional branch, a split, or plain straight-line overlap merge).
	Fall    uint64
	HasFall bool

	// Invalid marks a block whose decoding hit undecodable bytes: a
	// bogus over-approximation artifact. Its decoded prefix is retained.
	Invalid bool

	// Table is the jump-table analysis result when the block ends with a
	// resolved indirect jump.
	Table *JumpTable
}

// End returns the address one past the block's last instruction.
func (b *Block) End() uint64 {
	e := b.Addr
	for _, s := range b.Sizes {
		e += uint64(s)
	}
	return e
}

// InstAddrs returns the address of each instruction.
func (b *Block) InstAddrs() []uint64 {
	out := make([]uint64, len(b.Insts))
	a := b.Addr
	for i, s := range b.Sizes {
		out[i] = a
		a += uint64(s)
	}
	return out
}

// JumpTable is the over-approximated dispatch analysis of one indirect
// jump (§3.2.2): the symbolic form "base + sext(table[index]*4)" with all
// reaching base candidates and, per base, the over-approximated entries.
type JumpTable struct {
	JmpAddr  uint64 // address of the indirect jmp
	BlockAdr uint64 // block containing the jmp
	LoadAddr uint64 // address of the movsxd table load
	BaseReg  x86.Reg
	Bases    []uint64 // candidate table base addresses (usually one)

	// Entries holds, per base, the raw 4-byte table entries that were
	// accepted by the over-approximation, and Targets the corresponding
	// code addresses (base + sext(entry)).
	Entries map[uint64][]int32
	Targets map[uint64][]uint64
}

// MultiBase reports whether static analysis could not identify a unique
// base, requiring dynamic base identification (§3.5.2).
func (t *JumpTable) MultiBase() bool { return len(t.Bases) > 1 }

// Graph is a superset CFG for a whole binary.
type Graph struct {
	Blocks  map[uint64]*Block
	Entries []uint64 // sorted function entry points
	Tables  []*JumpTable

	TextStart, TextEnd uint64

	// File is the binary the graph was built from.
	File *elfx.File

	// Degraded notes every optional input source the build dropped
	// because it was malformed (e.g. corrupt .eh_frame). Per the paper
	// such sources are accelerators, never correctness requirements;
	// the notes make the degradation observable to callers and verdicts.
	Degraded []string

	// Syms is the symbol table of the stream serialized from this
	// graph (S'): serialize.Serialize creates it, the later stages
	// intern their labels in it, and the emitter assembles against it.
	// Nil until the graph is serialized.
	Syms *asm.Symtab

	// decodes counts the x86.Decode calls the build made.
	decodes uint64

	// preds is built lazily.
	preds map[uint64][]uint64
}

// SortedBlocks returns all blocks ordered by address.
func (g *Graph) SortedBlocks() []*Block {
	out := make([]*Block, 0, len(g.Blocks))
	for _, b := range g.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// FuncBounds returns the boundaries [start, end) of the function
// containing addr: the surrounding entry points (§3.2.2).
func (g *Graph) FuncBounds(addr uint64) (uint64, uint64) {
	i := sort.Search(len(g.Entries), func(i int) bool { return g.Entries[i] > addr })
	start := g.TextStart
	if i > 0 {
		start = g.Entries[i-1]
	}
	end := g.TextEnd
	if i < len(g.Entries) {
		end = g.Entries[i]
	}
	return start, end
}

// IsEntry reports whether addr is a harvested function entry.
func (g *Graph) IsEntry(addr uint64) bool {
	i := sort.Search(len(g.Entries), func(i int) bool { return g.Entries[i] >= addr })
	return i < len(g.Entries) && g.Entries[i] == addr
}

// Preds returns the predecessors (by block address) of the block at addr,
// following both direct and fall-through edges.
func (g *Graph) Preds(addr uint64) []uint64 {
	if g.preds == nil {
		g.preds = make(map[uint64][]uint64)
		for _, b := range g.Blocks {
			for _, s := range b.Succs {
				g.preds[s] = append(g.preds[s], b.Addr)
			}
			if b.HasFall {
				g.preds[b.Fall] = append(g.preds[b.Fall], b.Addr)
			}
		}
	}
	return g.preds[addr]
}

// invalidatePreds must be called whenever edges change.
func (g *Graph) invalidatePreds() { g.preds = nil }

// InstructionSet returns the set of all instruction start addresses in
// the graph.
func (g *Graph) InstructionSet() map[uint64]bool {
	out := make(map[uint64]bool, len(g.Blocks)*4)
	for _, b := range g.Blocks {
		for _, a := range b.InstAddrs() {
			out[a] = true
		}
	}
	return out
}

// NumInstructions counts instructions across all blocks — §4.3.3's
// superset size metric.
func (g *Graph) NumInstructions() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Stats summarizes graph construction.
type Stats struct {
	Blocks       int
	Instructions int
	Entries      int
	Tables       int
	MultiBase    int
	TableEntries int
	Invalid      int

	// PlaneMisses is the number of x86.Decode calls the build made: the
	// same on every build of the same binary. The name survives from
	// when builds decoded through a memoizing plane and counted its
	// misses; the benchmark and suri.Stats still read it under this
	// name.
	PlaneMisses uint64
}

// Stats returns summary statistics for the graph.
func (g *Graph) Stats() Stats {
	st := Stats{
		Blocks:       len(g.Blocks),
		Instructions: g.NumInstructions(),
		Entries:      len(g.Entries),
		Tables:       len(g.Tables),
		PlaneMisses:  g.decodes,
	}
	for _, b := range g.Blocks {
		if b.Invalid {
			st.Invalid++
		}
	}
	for _, t := range g.Tables {
		if t.MultiBase() {
			st.MultiBase++
		}
		for _, es := range t.Entries {
			st.TableEntries += len(es)
		}
	}
	return st
}

// textSection locates the executable section of the binary.
func textSection(f *elfx.File) (*elfx.Section, error) {
	var text *elfx.Section
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFExecinstr != 0 && s.Flags&elfx.SHFAlloc != 0 {
			if text != nil {
				return nil, fmt.Errorf("cfg: multiple executable sections")
			}
			text = s
		}
	}
	if text == nil {
		return nil, fmt.Errorf("cfg: no executable section")
	}
	// The builder indexes the text by offset, one slot per byte, so the
	// section must carry all its bytes (an SHT_NOBITS one carries none)
	// and fit 32-bit offsets.
	if uint64(len(text.Data)) != text.Size {
		return nil, fmt.Errorf("cfg: executable section %q has %d bytes of file data, size %#x", text.Name, len(text.Data), text.Size)
	}
	if text.Size > math.MaxInt32 {
		return nil, fmt.Errorf("cfg: executable section %q of %#x bytes is too large", text.Name, text.Size)
	}
	return text, nil
}
