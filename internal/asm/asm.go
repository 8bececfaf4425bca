// Package asm models relocatable assembly programs: ordered sections of
// labels, instructions with symbolic operands, and data directives. It is
// the in-memory form of the paper's intermediate assembly files S and S'
// (§3.3–§3.5): the compiler produces a Program, SURI's pipeline stages
// transform Programs, instrumentation inserts items into a Program, and
// Assemble turns a Program into placed bytes plus symbols and relocations.
package asm

import (
	"fmt"
	"strings"

	"repro/internal/x86"
)

// SectionFlags describe a section's mapping properties.
type SectionFlags uint8

// Section flag bits.
const (
	Alloc  SectionFlags = 1 << iota // mapped at run time
	Write                           // writable
	Exec                            // executable
	Nobits                          // occupies no file space (.bss)
)

// Section is a named, ordered sequence of items.
type Section struct {
	Name  string
	Flags SectionFlags
	Align uint64 // section start alignment; 0 means 1

	// Addr fixes the section's virtual address (the linker's
	// --section-start, used by the Emitter for layout preservation).
	Addr    uint64
	HasAddr bool

	Items []Item
}

// Program is a complete assembly translation unit.
type Program struct {
	Sections []*Section
	// Sets are ".set name, value" directives: absolute symbols that let
	// the program reference addresses it does not itself define (§3.4).
	Sets []Set
}

// Set is an absolute symbol definition.
type Set struct {
	Name string
	Addr uint64
}

// Section returns the section with the given name, creating it with the
// given flags if absent.
func (p *Program) Section(name string, flags SectionFlags) *Section {
	for _, s := range p.Sections {
		if s.Name == name {
			return s
		}
	}
	s := &Section{Name: name, Flags: flags, Align: 16}
	p.Sections = append(p.Sections, s)
	return s
}

// FindSection returns the named section or nil.
func (p *Program) FindSection(name string) *Section {
	for _, s := range p.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Item is one element of a section.
type Item interface{ isItem() }

// Label defines a symbol at the current location.
type Label struct {
	Name string
}

// Ins is a machine instruction, optionally with a symbolic operand. It is
// an Item by pointer (*Ins): instruction streams are large, and a
// pointer into the stream that already holds the instruction (the
// rewriter's S' entries embed their Ins) boxes without a copy. When
// Target is non-empty the instruction's relative operand (branch Rel or
// RIP-relative memory displacement) is resolved to Target+Addend at
// assembly time, overriding the numeric value in Inst.
//
// An Ins is 80 bytes (TestLayout bounds it): the rare displacement
// difference sits behind one pointer, nil on every other instruction.
type Ins struct {
	Inst   x86.Inst
	Target string
	Addend int64

	// Diff, when non-nil, adds a link-time symbol difference to the
	// displacement of the instruction's non-RIP memory operand.
	Diff *DispDiff
}

// DispDiff is the link-time difference (Plus - Minus) an Ins adds to its
// memory displacement. This reproduces how compilers fold a
// cross-section symbol distance into a temporary-pointer access (the S7
// composite expressions of Table 1, Figures 1 and 2): the operand
// "[R9 + (var - anchor)]" carries a constant that is only meaningful for
// one specific section layout. The memory operand must have Wide set so
// its encoded size is layout-independent. A DispDiff is never modified
// once built, so copies of an Ins may share it.
type DispDiff struct {
	Plus, Minus string
}

// Bytes is raw literal data.
type Bytes struct {
	Data []byte
}

// Quad is an 8-byte absolute address (".quad sym+add"). In a PIE it emits
// an R_X86_64_RELATIVE-style relocation so the loader can rebase it. This
// is the S1/S2 label form of Table 1.
type Quad struct {
	Sym string
	Add int64
}

// QuadLit is an 8-byte literal with no relocation.
type QuadLit uint64

// LongLit is a 4-byte literal with no relocation.
type LongLit uint32

// LongDiff is a 4-byte difference ".long plus - minus + add", the jump
// table entry form (S4 of Table 1).
type LongDiff struct {
	Plus  string
	Minus string
	Add   int64
}

// AlignTo pads to the given power-of-two boundary; executable sections are
// padded with multi-byte NOPs, others with zero bytes.
type AlignTo struct {
	N uint64
}

// Space reserves n zero bytes (".skip"/".zero"). In Nobits sections it
// contributes to the size without emitting file bytes.
type Space struct {
	N uint64
}

func (Label) isItem()    {}
func (*Ins) isItem()     {}
func (Bytes) isItem()    {}
func (Quad) isItem()     {}
func (QuadLit) isItem()  {}
func (LongLit) isItem()  {}
func (LongDiff) isItem() {}
func (AlignTo) isItem()  {}
func (Space) isItem()    {}

// Convenience constructors used heavily by the compiler and the rewriter.

// L appends a label.
func (s *Section) L(name string) { s.Items = append(s.Items, Label{Name: name}) }

// I appends a plain instruction.
func (s *Section) I(in x86.Inst) { s.Items = append(s.Items, &Ins{Inst: in}) }

// IS appends an instruction whose relative operand targets sym+add.
func (s *Section) IS(in x86.Inst, sym string, add int64) {
	s.Items = append(s.Items, &Ins{Inst: in, Target: sym, Addend: add})
}

// IDiff appends an instruction whose memory-operand displacement is
// adjusted by the link-time difference (plus - minus). The operand's Wide
// flag is set automatically.
func (s *Section) IDiff(in x86.Inst, plus, minus string) {
	if m, ok := in.Dst.(x86.Mem); ok && !m.Rip {
		m.Wide = true
		in.Dst = m
	} else if m, ok := in.Src.(x86.Mem); ok && !m.Rip {
		m.Wide = true
		in.Src = m
	}
	s.Items = append(s.Items, &Ins{Inst: in, Diff: &DispDiff{Plus: plus, Minus: minus}})
}

// Raw appends literal bytes.
func (s *Section) Raw(b []byte) { s.Items = append(s.Items, Bytes{Data: b}) }

// Q appends ".quad sym+add".
func (s *Section) Q(sym string, add int64) { s.Items = append(s.Items, Quad{Sym: sym, Add: add}) }

// D8 appends an 8-byte literal.
func (s *Section) D8(v uint64) { s.Items = append(s.Items, QuadLit(v)) }

// D4 appends a 4-byte literal.
func (s *Section) D4(v uint32) { s.Items = append(s.Items, LongLit(v)) }

// Diff appends ".long plus - minus".
func (s *Section) Diff(plus, minus string, add int64) {
	s.Items = append(s.Items, LongDiff{Plus: plus, Minus: minus, Add: add})
}

// Align pads to an n-byte boundary.
func (s *Section) Align2(n uint64) { s.Items = append(s.Items, AlignTo{N: n}) }

// Skip reserves n zero bytes.
func (s *Section) Skip(n uint64) { s.Items = append(s.Items, Space{N: n}) }

// String renders an item in GNU-as-like syntax (see Print for programs).
func ItemString(it Item) string {
	switch v := it.(type) {
	case Label:
		return v.Name + ":"
	case *Ins:
		return "\t" + insString(v)
	case Bytes:
		return fmt.Sprintf("\t.byte %d bytes", len(v.Data))
	case Quad:
		return "\t.quad " + symPlus(v.Sym, v.Add, " ")
	case QuadLit:
		return fmt.Sprintf("\t.quad 0x%x", uint64(v))
	case LongLit:
		return fmt.Sprintf("\t.long 0x%x", uint32(v))
	case LongDiff:
		s := fmt.Sprintf("\t.long %s - %s", v.Plus, v.Minus)
		if v.Add != 0 {
			s += fmt.Sprintf(" + %d", v.Add)
		}
		return s
	case AlignTo:
		return fmt.Sprintf("\t.align %d", v.N)
	case Space:
		return fmt.Sprintf("\t.skip %d", v.N)
	}
	return fmt.Sprintf("\t? %T", it)
}

// symPlus renders sym+add with sep around the sign: "v + 0x42" or
// "v+0x42".
func symPlus(sym string, add int64, sep string) string {
	switch {
	case add > 0:
		return fmt.Sprintf("%s%s+%s0x%x", sym, sep, sep, add)
	case add < 0:
		return fmt.Sprintf("%s%s-%s0x%x", sym, sep, sep, -add)
	}
	return sym
}

// insString renders an instruction with its symbolic operand in place
// of the numeric one: a branch names its target, a RIP-relative operand
// reads "[RIP+sym+add]", and a displacement difference, which the
// assembler applies instead, reads "[R9+0x10+(var-anchor)]".
func insString(v *Ins) string {
	in := v.Inst
	full := in.String()
	end := strings.IndexByte(full, ']')
	if d := v.Diff; d != nil {
		if end < 0 {
			return full
		}
		return full[:end] + "+(" + d.Plus + "-" + d.Minus + ")" + full[end:]
	}
	if v.Target == "" {
		return full
	}
	if _, ok := in.Src.(x86.Rel); ok && (in.Op == x86.JMP || in.Op == x86.JCC || in.Op == x86.CALL) {
		mnemonic, _, _ := strings.Cut(full, " ")
		return mnemonic + " " + symPlus(v.Target, v.Addend, " ")
	}
	if m, ok := in.MemArg(); ok && m.Rip {
		open := strings.Index(full, "[RIP")
		return full[:open] + "[RIP+" + symPlus(v.Target, v.Addend, "") + full[end:]
	}
	return full
}
