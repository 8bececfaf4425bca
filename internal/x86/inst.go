package x86

import (
	"fmt"
	"strings"
)

// ArgKind tags an operand.
type ArgKind uint8

// Operand kinds. The zero Arg is ArgNone: the operand is absent.
const (
	ArgNone ArgKind = iota
	ArgReg
	ArgImm
	ArgMem
	ArgRel
)

// Arg is an instruction operand: a register, an immediate, a memory
// reference or a branch displacement, told apart by Kind. It is 16 bytes
// with no pointers, so the slabs that hold Insts by value (the CFG
// builder's arena, S', the emulator's decode planes) cost the garbage
// collector nothing to scan. The zero Arg means "no operand".
//
// Build operands with the Arg methods of Reg, Imm, Mem and Rel, and read
// them back with AsReg, AsImm, AsMem and AsRel (or switch on Kind and
// read the fields directly, as the emulator does).
type Arg struct {
	Kind  ArgKind
	Base  Reg   // ArgReg: the register; ArgMem: the base (NoReg if absent)
	Index Reg   // ArgMem: NoReg if absent; RSP is not encodable as an index
	Scale uint8 // ArgMem: 1, 2, 4, or 8 (meaningful only when Index is set)

	// ArgMem flags; see Mem.
	Rip  bool
	FS   bool
	Wide bool

	// Val is the immediate (ArgImm), the displacement relative to the
	// next instruction (ArgRel), or the memory displacement (ArgMem,
	// always within int32).
	Val int64
}

// Arg wraps the register as an operand.
func (r Reg) Arg() Arg { return Arg{Kind: ArgReg, Base: r} }

// AsReg returns the operand's register if it is a register operand.
func (a Arg) AsReg() (Reg, bool) { return a.Base, a.Kind == ArgReg }

// Imm is an immediate operand.
type Imm int64

// Arg wraps the immediate as an operand.
func (i Imm) Arg() Arg { return Arg{Kind: ArgImm, Val: int64(i)} }

// AsImm returns the operand's value if it is an immediate.
func (a Arg) AsImm() (Imm, bool) { return Imm(a.Val), a.Kind == ArgImm }

func (i Imm) argString() string {
	if i < 0 {
		return fmt.Sprintf("-0x%x", uint64(-i))
	}
	return fmt.Sprintf("0x%x", uint64(i))
}

// Mem is a memory operand: [Base + Index*Scale + Disp], or
// [RIP + Disp] when Rip is set. It is the builder and reader form of an
// ArgMem operand.
type Mem struct {
	Base  Reg   // NoReg if absent
	Index Reg   // NoReg if absent; RSP is not encodable as an index
	Scale uint8 // 1, 2, 4, or 8 (meaningful only when Index is set)
	Disp  int32
	Rip   bool // RIP-relative; Base and Index must be NoReg

	// FS marks an FS-segment-relative operand (0x64 prefix): the
	// effective address is fs_base + the usual base/index/disp sum.
	// x86-64 TLS access (local-exec model) is the only producer.
	FS bool

	// Wide forces the disp32 encoding even for displacements that fit in
	// disp8 (or zero). The assembler uses it for operands whose final
	// displacement is a link-time symbol difference, so the encoded size
	// is independent of the resolved value. The decoder sets it for
	// disp32 encodings, keeping decode/encode byte-stable.
	Wide bool
}

// Arg wraps the memory reference as an operand.
func (m Mem) Arg() Arg {
	return Arg{Kind: ArgMem, Base: m.Base, Index: m.Index, Scale: m.Scale,
		Rip: m.Rip, FS: m.FS, Wide: m.Wide, Val: int64(m.Disp)}
}

// AsMem returns the operand's memory reference if it is one.
func (a Arg) AsMem() (Mem, bool) {
	return Mem{Base: a.Base, Index: a.Index, Scale: a.Scale, Disp: int32(a.Val),
		Rip: a.Rip, FS: a.FS, Wide: a.Wide}, a.Kind == ArgMem
}

func (m Mem) argString() string {
	var b strings.Builder
	if m.FS {
		b.WriteString("FS:")
	}
	b.WriteByte('[')
	sep := ""
	if m.Rip {
		b.WriteString("RIP")
		sep = "+"
	}
	if m.Base.Valid() {
		b.WriteString(m.Base.Name(8))
		sep = "+"
	}
	if m.Index.Valid() {
		b.WriteString(sep)
		b.WriteString(m.Index.Name(8))
		if m.Scale > 1 {
			fmt.Fprintf(&b, "*%d", m.Scale)
		}
		sep = "+"
	}
	switch {
	case m.Disp < 0:
		fmt.Fprintf(&b, "-0x%x", uint32(-m.Disp))
	case m.Disp > 0 || sep == "":
		b.WriteString(sep)
		fmt.Fprintf(&b, "0x%x", uint32(m.Disp))
	}
	b.WriteByte(']')
	return b.String()
}

// Rel is a branch displacement, relative to the address of the *next*
// instruction (standard x86 semantics).
type Rel int32

// Arg wraps the displacement as an operand.
func (r Rel) Arg() Arg { return Arg{Kind: ArgRel, Val: int64(r)} }

// AsRel returns the operand's displacement if it is a branch
// displacement.
func (a Arg) AsRel() (Rel, bool) { return Rel(a.Val), a.Kind == ArgRel }

func (r Rel) argString() string {
	if r < 0 {
		return fmt.Sprintf(".-0x%x", uint32(-int32(r)))
	}
	return fmt.Sprintf(".+0x%x", uint32(r))
}

// argString renders the operand at the given width; an absent operand
// renders as "".
func (a Arg) argString(width uint8) string {
	switch a.Kind {
	case ArgReg:
		return a.Base.Name(width)
	case ArgImm:
		return Imm(a.Val).argString()
	case ArgMem:
		m, _ := a.AsMem()
		return m.argString()
	case ArgRel:
		return Rel(a.Val).argString()
	}
	return ""
}

// String renders the operand at the default 64-bit width.
func (a Arg) String() string { return a.argString(8) }

// Inst is a decoded or to-be-encoded instruction.
//
// Operand conventions (Intel order, destination first):
//   - MOV/ALU:  Dst, Src
//   - LEA:      Dst (Reg), Src (Mem)
//   - PUSH:     Src only; POP: Dst only
//   - JMP/CALL: Src is Rel (direct) or Reg/Mem (indirect)
//   - shifts:   Dst, Src (Imm count, or Reg(RCX) for CL forms)
//   - IMUL three-operand form: Dst (Reg), Src (Reg/Mem), Imm3
//
// The operands are 16-byte values at 16-byte offsets and the one-byte
// fields, flags included, share the last word, so an Inst is 48 bytes
// with no pointers (TestLayout pins both): the CFG builder's arena, S'
// and the emulator's decode planes all hold Insts by value, and the
// garbage collector never scans them. The operands come first so that
// the 16-byte moves that copy an Inst line up with them: reading an
// operand just after a copy then forwards from one store instead of
// straddling two. An absent operand is the zero Arg.
type Inst struct {
	Dst  Arg
	Src  Arg
	Imm3 int64 // third operand of imul r, r/m, imm

	Op   Op
	Cond Cond // for JCC, SETCC, CMOVCC
	W    uint8
	// W is the operand width in bytes (1, 4, or 8). For MOVZX/MOVSX/MOVSXD
	// it is the destination width; SrcW holds the source width.
	SrcW    uint8
	HasImm3 bool // Imm3 is present
	NoTrack bool // 3E notrack prefix (meaningful on indirect JMP)

	// LongBranch forces the rel32 encoding of JMP/JCC even when the
	// displacement would fit in rel8. The decoder sets it for rel32
	// encodings so that decode/encode is byte-stable; the assembler uses
	// it during branch relaxation. It does not affect String.
	LongBranch bool
}

// String renders the instruction in the Intel-like syntax used throughout
// the paper, e.g. "lea RAX, [RIP+0x41]".
func (in Inst) String() string {
	var b strings.Builder
	if in.NoTrack {
		b.WriteString("notrack ")
	}
	b.WriteString(in.mnemonic())
	args := make([]string, 0, 3)
	if in.Dst.Kind != ArgNone {
		args = append(args, in.operandString(in.Dst, in.W))
	}
	if in.Src.Kind != ArgNone {
		args = append(args, in.operandString(in.Src, in.srcWidth()))
	}
	if in.HasImm3 {
		args = append(args, Imm(in.Imm3).argString())
	}
	if len(args) > 0 {
		b.WriteByte(' ')
		b.WriteString(strings.Join(args, ", "))
	}
	return b.String()
}

func (in Inst) mnemonic() string {
	switch in.Op {
	case JCC:
		return "j" + strings.ToLower(in.Cond.String())
	case SETCC:
		return "set" + strings.ToLower(in.Cond.String())
	case CMOVCC:
		return "cmov" + strings.ToLower(in.Cond.String())
	}
	return in.Op.String()
}

func (in Inst) srcWidth() uint8 {
	if in.SrcW != 0 {
		return in.SrcW
	}
	if in.W == 0 && (in.Op == JMP || in.Op == CALL) {
		return 8 // indirect branches always load a 64-bit target
	}
	return in.W
}

// operandString renders one operand, qualifying memory operands with a
// size prefix when the width is not the default 8 bytes.
func (in Inst) operandString(a Arg, width uint8) string {
	if a.Kind == ArgMem && in.Op != LEA {
		prefix := ""
		switch width {
		case 1:
			prefix = "BYTE PTR "
		case 2:
			prefix = "WORD PTR "
		case 4:
			prefix = "DWORD PTR "
		case 8:
			prefix = "QWORD PTR "
		}
		return prefix + a.argString(width)
	}
	return a.argString(width)
}

// BranchTarget returns the absolute target address of a direct branch
// located at addr with encoded length size. The second result is false for
// indirect branches and non-branches.
func (in Inst) BranchTarget(addr uint64, size int) (uint64, bool) {
	if in.Op != JMP && in.Op != JCC && in.Op != CALL {
		return 0, false
	}
	if in.Src.Kind != ArgRel {
		return 0, false
	}
	return addr + uint64(size) + uint64(in.Src.Val), true
}

// MemArg returns the instruction's memory operand, if any.
func (in Inst) MemArg() (Mem, bool) {
	if in.Dst.Kind == ArgMem {
		return in.Dst.AsMem()
	}
	return in.Src.AsMem()
}

// RipTarget returns the absolute address referenced by a RIP-relative
// memory operand of the instruction at addr with encoded length size.
func (in Inst) RipTarget(addr uint64, size int) (uint64, bool) {
	m := in.Src
	if in.Dst.Kind == ArgMem {
		m = in.Dst
	}
	if m.Kind != ArgMem || !m.Rip {
		return 0, false
	}
	return addr + uint64(size) + uint64(m.Val), true
}

// IsIndirectBranch reports whether the instruction is an indirect jump or
// call (through a register or memory operand).
func (in Inst) IsIndirectBranch() bool {
	if in.Op != JMP && in.Op != CALL {
		return false
	}
	return in.Src.Kind != ArgRel
}
