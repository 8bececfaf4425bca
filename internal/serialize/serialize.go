// Package serialize implements SURI's CFG Serializer (§3.3, Algorithm 1):
// it linearizes a superset CFG into a sequence of labelled instructions,
// making implicit fall-through control flow explicit with inserted jumps
// so that overlapping/merged blocks execute correctly wherever they are
// placed.
package serialize

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/harden"
	"repro/internal/x86"
)

// Entry is one element of the serialized code stream Σcopy. Synthesized
// entries (inserted jumps, traps, instrumentation) have Synth set and no
// original address.
//
// An Entry is 80 bytes with no pointers (TestLayout pins both): labels
// and symbolic operands are IDs into the stream's symbol table
// (cfg.Graph.Syms), so the slab a rewrite fills costs the garbage
// collector nothing to scan and moving entries needs no write barriers.
type Entry struct {
	// Ins is the instruction as the assembler reads it: Inst, and the
	// symbolic operand Target (+Addend) a branch or RIP-relative operand
	// must resolve to. A zero Target means the operand is still numeric
	// (pre-repair) or absent. The emitter points its text items at this
	// field, so S' is assembled in place, never copied.
	asm.Ins

	// Addr/Size identify the original instruction this entry copies;
	// zero for synthesized entries. An x86-64 instruction is at most 15
	// bytes, so Size fits a byte.
	Addr uint64

	// Label is the first label defined at this position, before the
	// instruction (0 for none); any further ones follow it in the symbol
	// table's label list (asm.Symtab.Next). AddLabel and MoveLabels edit
	// the list.
	Label asm.Sym

	Size  uint8
	Synth bool
}

// AddLabel defines label l at e's position, after any labels e already
// has.
func (e *Entry) AddLabel(syms *asm.Symtab, l asm.Sym) { e.Label = syms.Link(e.Label, l) }

// MoveLabels moves every label of from onto to, ahead of to's own: code
// inserted before an entry takes over the entry's labels, so control
// reaching the labels runs the inserted code first.
func MoveLabels(syms *asm.Symtab, to, from *Entry) {
	to.Label = syms.Link(from.Label, to.Label)
	from.Label = 0
}

// Labels lists the labels defined at e's position, in order.
func (e *Entry) Labels(syms *asm.Symtab) []asm.Sym {
	var out []asm.Sym
	for l := e.Label; l != 0; l = syms.Next(l) {
		out = append(out, l)
	}
	return out
}

// TrapLabel is the shared landing pad for bogus jump-table entries whose
// targets could not be decoded. It is unreachable in any real execution.
const TrapLabel = "LTRAP"

// LabelFor names the new-code label of an original instruction address.
func LabelFor(addr uint64) string {
	var buf [maxLabelLen]byte
	return string(appendLabel(buf[:0], addr))
}

// maxLabelLen is the longest new-code label: "LC_" and 16 hex digits.
const maxLabelLen = 3 + 16

// appendLabel appends addr's new-code label to dst.
func appendLabel(dst []byte, addr uint64) []byte {
	return strconv.AppendUint(append(dst, "LC_"...), addr, 16)
}

// labelLen is the length of addr's new-code label.
func labelLen(addr uint64) int { return 3 + max(1, (bits.Len64(addr)+3)/4) }

// LookupLabel returns the new-code label of an original instruction
// address if it has been interned. It builds no string, so resolving a
// block's label costs one map probe and no allocation.
func LookupLabel(syms *asm.Symtab, addr uint64) (asm.Sym, bool) {
	var buf [maxLabelLen]byte
	return syms.LookupBytes(appendLabel(buf[:0], addr))
}

// Label interns the new-code label of an original instruction address.
// Every block's label is interned by Serialize, so for a block start
// this is an allocation-free lookup.
func Label(syms *asm.Symtab, addr uint64) asm.Sym {
	if s, ok := LookupLabel(syms, addr); ok {
		return s
	}
	return syms.Intern(LabelFor(addr))
}

// Serialize linearizes the superset CFG. Blocks are emitted in ascending
// address order; a block whose fall-through successor is not the next
// emitted block gets an explicit jump (Algorithm 1's add_br_instruction).
// Invalid (bogus) blocks keep their decoded prefix and end in a trap.
//
// The stream is allocated once: its length is counted up front, and its
// capacity also covers the dispatch fixes the symbolizer inserts, so
// later stages edit it in place. Serialize starts a fresh symbol table
// for the stream in g.Syms.
func Serialize(g *cfg.Graph) ([]Entry, error) {
	if err := harden.Inject(harden.FPSerialize); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	blocks := g.SortedBlocks()

	// Every block start is a label, interned in block order. The names
	// are formatted into one string and interned as substrings of it,
	// so the table holds one name allocation, not one per block.
	syms := asm.NewSymtab(len(blocks) + 1)
	g.Syms = syms
	size := 0
	for _, b := range blocks {
		size += labelLen(b.Addr)
	}
	var all strings.Builder
	all.Grow(size)
	var buf [maxLabelLen]byte
	for _, b := range blocks {
		all.Write(appendLabel(buf[:0], b.Addr))
	}
	text := all.String()
	names := make([]asm.Sym, len(blocks))
	n := 1 // the shared trap
	for bi, b := range blocks {
		l := labelLen(b.Addr)
		names[bi] = syms.Intern(text[:l])
		text = text[l:]
		n += len(b.Insts)
		if len(b.Insts) == 0 || b.Invalid || (b.HasFall && !fallsThrough(blocks, bi)) {
			n++ // a lone trap, a sealing trap, or an explicit jump
		}
	}
	// labelOf resolves a branch target to its block's label, or the trap
	// when the target starts no block (bogus code only).
	trap := syms.Intern(TrapLabel)
	labelOf := func(tgt uint64) asm.Sym {
		i, ok := slices.BinarySearchFunc(blocks, tgt, func(b *cfg.Block, a uint64) int {
			return cmp.Compare(b.Addr, a)
		})
		if !ok {
			return trap
		}
		return names[i]
	}
	out := make([]Entry, 0, n+fixRoom(g))

	for bi, b := range blocks {
		label := names[bi]

		if len(b.Insts) == 0 {
			// Degenerate invalid block (undecodable first byte): emit a
			// labelled trap.
			out = append(out, Entry{
				Ins:   asm.Ins{Inst: x86.Inst{Op: x86.UD2}},
				Label: label,
				Synth: true,
			})
			continue
		}

		addr := b.Addr
		for i := range b.Insts {
			size := b.Sizes[i]
			// The slab is fresh, so its reserved tail is already zero:
			// extend it and fill the fields in place.
			out = out[:len(out)+1]
			e := &out[len(out)-1]
			e.Inst = b.Insts[i]
			e.Addr, e.Label, e.Size = addr, label, size
			label = 0
			// Direct branches become symbolic immediately: their targets
			// are blocks (or harvested entries) by construction. Targets
			// with no block only occur in bogus (never-executed) code and
			// are routed to the trap.
			if tgt, ok := e.Inst.BranchTarget(addr, int(size)); ok {
				e.Target = labelOf(tgt)
			}
			addr += uint64(size)
		}

		switch {
		case b.Invalid:
			// Bogus path: never executed; seal it.
			out = append(out, Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.UD2}}, Synth: true})
		case b.HasFall:
			if fallsThrough(blocks, bi) {
				break // natural adjacency
			}
			out = append(out, Entry{
				Ins:   asm.Ins{Inst: x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, Target: labelOf(b.Fall)},
				Synth: true,
			})
		}
	}

	// Shared trap for undecodable jump-table targets.
	out = append(out, Entry{
		Ins:   asm.Ins{Inst: x86.Inst{Op: x86.UD2}},
		Label: trap,
		Synth: true,
	})
	return out, nil
}

// fallsThrough reports whether block bi's fall-through successor is the
// next block in address order, so no explicit jump is needed.
func fallsThrough(blocks []*cfg.Block, bi int) bool {
	return bi+1 < len(blocks) && blocks[bi+1].Addr == blocks[bi].Fall
}

// fixRoom bounds the entries the symbolizer inserts for g's dispatch
// sites: one lea per single-base table, and a 6n-3 entry if-then-else
// chain for n candidate bases, so 6 per base covers both.
func fixRoom(g *cfg.Graph) int {
	n := 0
	for _, t := range g.Tables {
		n += 6 * len(t.Bases)
	}
	return n
}

// Items lists the stream as assembler items: each entry's labels, then
// a pointer to the asm.Ins the entry embeds, so the stream is assembled
// in place, never copied. The list is sized exactly (labels plus
// instructions).
func Items(entries []Entry, syms *asm.Symtab) []asm.Item {
	return AppendItems(nil, entries, syms)
}

// AppendItems appends the stream's items (see Items) to dst, growing it
// at most once, and returns the extended list.
func AppendItems(dst []asm.Item, entries []Entry, syms *asm.Symtab) []asm.Item {
	n := len(entries)
	for i := range entries {
		for l := entries[i].Label; l != 0; l = syms.Next(l) {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for i := range entries {
		for l := entries[i].Label; l != 0; l = syms.Next(l) {
			dst = append(dst, asm.Label{Sym: l})
		}
		dst = append(dst, &entries[i].Ins)
	}
	return dst
}

// Count reports original and synthesized instruction counts, the
// §4.3.1 added-instruction metric.
func Count(entries []Entry) (orig, synth int) {
	for i := range entries {
		if entries[i].Synth {
			synth++
		} else {
			orig++
		}
	}
	return orig, synth
}
