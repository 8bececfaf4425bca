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
	prog *Program // interns the names the helper methods take

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

	// Syms interns every symbol the items reference. Nil until the first
	// Sym call; a program assembled from a stream built elsewhere (the
	// rewriter's S') shares that stream's table.
	Syms *Symtab
}

// Sym interns name in the program's symbol table.
func (p *Program) Sym(name string) Sym {
	if p.Syms == nil {
		p.Syms = NewSymtab(0)
	}
	return p.Syms.Intern(name)
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
	s := &Section{prog: p, Name: name, Flags: flags, Align: 16}
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
	Sym Sym
}

// Ins is a machine instruction, optionally with a symbolic operand. It is
// an Item by pointer (*Ins): instruction streams are large, and a
// pointer into the stream that already holds the instruction (the
// rewriter's S' entries embed their Ins) boxes without a copy. When
// Target is set the instruction's relative operand (branch Rel or
// RIP-relative memory displacement) is resolved to Target+Addend at
// assembly time, overriding the numeric value in Inst.
//
// An Ins is 64 bytes with no pointers (TestLayout pins both): symbols
// are IDs into the program's symbol table, so a slab of Ins values (S')
// costs the garbage collector nothing to scan. Addend is 32 bits wide,
// like the displacement it ends up in.
type Ins struct {
	Inst   x86.Inst
	Addend int32
	Target Sym

	// Diff, when set, adds a link-time symbol difference to the
	// displacement of the instruction's non-RIP memory operand.
	Diff DispDiff
}

// DispDiff is the link-time difference (Plus - Minus) an Ins adds to its
// memory displacement; the zero DispDiff adds nothing. This reproduces
// how compilers fold a cross-section symbol distance into a
// temporary-pointer access (the S7 composite expressions of Table 1,
// Figures 1 and 2): the operand "[R9 + (var - anchor)]" carries a
// constant that is only meaningful for one specific section layout. The
// memory operand must have Wide set so its encoded size is
// layout-independent.
type DispDiff struct {
	Plus, Minus Sym
}

// Set reports whether the difference is present.
func (d DispDiff) Set() bool { return d.Plus != 0 }

// Bytes is raw literal data.
type Bytes struct {
	Data []byte
}

// Quad is an 8-byte absolute address (".quad sym+add"). In a PIE it emits
// an R_X86_64_RELATIVE-style relocation so the loader can rebase it. This
// is the S1/S2 label form of Table 1.
type Quad struct {
	Sym Sym
	Add int64
}

// QuadLit is an 8-byte literal with no relocation.
type QuadLit uint64

// LongLit is a 4-byte literal with no relocation.
type LongLit uint32

// LongDiff is a 4-byte difference ".long plus - minus + add", the jump
// table entry form (S4 of Table 1).
type LongDiff struct {
	Plus  Sym
	Minus Sym
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

// The helpers below take symbol names and intern them in the section's
// program; sections come from Program.Section.

// L appends a label.
func (s *Section) L(name string) { s.Items = append(s.Items, Label{Sym: s.prog.Sym(name)}) }

// I appends a plain instruction.
func (s *Section) I(in x86.Inst) { s.Items = append(s.Items, &Ins{Inst: in}) }

// IS appends an instruction whose relative operand targets sym+add;
// add must fit in 32 bits.
func (s *Section) IS(in x86.Inst, sym string, add int64) {
	if add != int64(int32(add)) {
		panic(fmt.Sprintf("asm: addend %#x of %s exceeds 32 bits", add, sym))
	}
	s.Items = append(s.Items, &Ins{Inst: in, Target: s.prog.Sym(sym), Addend: int32(add)})
}

// IDiff appends an instruction whose memory-operand displacement is
// adjusted by the link-time difference (plus - minus). The operand's Wide
// flag is set automatically.
func (s *Section) IDiff(in x86.Inst, plus, minus string) {
	if in.Dst.Kind == x86.ArgMem && !in.Dst.Rip {
		in.Dst.Wide = true
	} else if in.Src.Kind == x86.ArgMem && !in.Src.Rip {
		in.Src.Wide = true
	}
	d := DispDiff{Plus: s.prog.Sym(plus), Minus: s.prog.Sym(minus)}
	s.Items = append(s.Items, &Ins{Inst: in, Diff: d})
}

// Raw appends literal bytes.
func (s *Section) Raw(b []byte) { s.Items = append(s.Items, Bytes{Data: b}) }

// Q appends ".quad sym+add".
func (s *Section) Q(sym string, add int64) {
	s.Items = append(s.Items, Quad{Sym: s.prog.Sym(sym), Add: add})
}

// D8 appends an 8-byte literal.
func (s *Section) D8(v uint64) { s.Items = append(s.Items, QuadLit(v)) }

// D4 appends a 4-byte literal.
func (s *Section) D4(v uint32) { s.Items = append(s.Items, LongLit(v)) }

// Diff appends ".long plus - minus".
func (s *Section) Diff(plus, minus string, add int64) {
	s.Items = append(s.Items, LongDiff{Plus: s.prog.Sym(plus), Minus: s.prog.Sym(minus), Add: add})
}

// Align pads to an n-byte boundary.
func (s *Section) Align2(n uint64) { s.Items = append(s.Items, AlignTo{N: n}) }

// Skip reserves n zero bytes.
func (s *Section) Skip(n uint64) { s.Items = append(s.Items, Space{N: n}) }

// ItemString renders an item in GNU-as-like syntax (see Print for
// programs), naming its symbols from t.
func (t *Symtab) ItemString(it Item) string {
	switch v := it.(type) {
	case Label:
		return t.Name(v.Sym) + ":"
	case *Ins:
		return "\t" + t.insString(v)
	case Bytes:
		return fmt.Sprintf("\t.byte %d bytes", len(v.Data))
	case Quad:
		return "\t.quad " + symPlus(t.Name(v.Sym), v.Add, " ")
	case QuadLit:
		return fmt.Sprintf("\t.quad 0x%x", uint64(v))
	case LongLit:
		return fmt.Sprintf("\t.long 0x%x", uint32(v))
	case LongDiff:
		s := fmt.Sprintf("\t.long %s - %s", t.Name(v.Plus), t.Name(v.Minus))
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
func (t *Symtab) insString(v *Ins) string {
	in := v.Inst
	full := in.String()
	end := strings.IndexByte(full, ']')
	if d := v.Diff; d.Set() {
		if end < 0 {
			return full
		}
		return full[:end] + "+(" + t.Name(d.Plus) + "-" + t.Name(d.Minus) + ")" + full[end:]
	}
	if v.Target == 0 {
		return full
	}
	if in.Src.Kind == x86.ArgRel && (in.Op == x86.JMP || in.Op == x86.JCC || in.Op == x86.CALL) {
		mnemonic, _, _ := strings.Cut(full, " ")
		return mnemonic + " " + symPlus(t.Name(v.Target), int64(v.Addend), " ")
	}
	if m, ok := in.MemArg(); ok && m.Rip {
		open := strings.Index(full, "[RIP")
		return full[:open] + "[RIP+" + symPlus(t.Name(v.Target), int64(v.Addend), "") + full[end:]
	}
	return full
}
