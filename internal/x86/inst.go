package x86

import (
	"fmt"
	"strings"
)

// Arg is an instruction operand: a Reg, an Imm, a Mem, or a Rel.
type Arg interface {
	isArg()
	argString(width uint8) string
}

func (Reg) isArg() {}

func (r Reg) argString(width uint8) string { return r.Name(width) }

// Imm is an immediate operand.
type Imm int64

func (Imm) isArg() {}

func (i Imm) argString(uint8) string {
	if i < 0 {
		return fmt.Sprintf("-0x%x", uint64(-i))
	}
	return fmt.Sprintf("0x%x", uint64(i))
}

// Mem is a memory operand: [Base + Index*Scale + Disp], or
// [RIP + Disp] when Rip is set.
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

func (Mem) isArg() {}

func (m Mem) argString(uint8) string {
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

func (Rel) isArg() {}

func (r Rel) argString(uint8) string {
	if r < 0 {
		return fmt.Sprintf(".-0x%x", uint32(-int32(r)))
	}
	return fmt.Sprintf(".+0x%x", uint32(r))
}

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
// The one-byte fields, flags included, share the first word, so an Inst
// is 48 bytes (TestLayout pins it): the CFG builder's arena, S' and the
// emulator's decode planes all hold Insts by value.
type Inst struct {
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

	Dst  Arg
	Src  Arg
	Imm3 int64 // third operand of imul r, r/m, imm
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
	if in.Dst != nil {
		args = append(args, in.operandString(in.Dst, in.W))
	}
	if in.Src != nil {
		args = append(args, in.operandString(in.Src, in.srcWidth()))
	}
	if in.HasImm3 {
		args = append(args, Imm(in.Imm3).argString(in.W))
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
	if m, ok := a.(Mem); ok && in.Op != LEA {
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
		return prefix + m.argString(width)
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
	rel, ok := in.Src.(Rel)
	if !ok {
		return 0, false
	}
	return addr + uint64(size) + uint64(int64(rel)), true
}

// MemArg returns the instruction's memory operand, if any.
func (in Inst) MemArg() (Mem, bool) {
	if m, ok := in.Dst.(Mem); ok {
		return m, true
	}
	if m, ok := in.Src.(Mem); ok {
		return m, true
	}
	return Mem{}, false
}

// RipTarget returns the absolute address referenced by a RIP-relative
// memory operand of the instruction at addr with encoded length size.
func (in Inst) RipTarget(addr uint64, size int) (uint64, bool) {
	m, ok := in.MemArg()
	if !ok || !m.Rip {
		return 0, false
	}
	return addr + uint64(size) + uint64(int64(m.Disp)), true
}

// IsIndirectBranch reports whether the instruction is an indirect jump or
// call (through a register or memory operand).
func (in Inst) IsIndirectBranch() bool {
	if in.Op != JMP && in.Op != CALL {
		return false
	}
	_, isRel := in.Src.(Rel)
	return !isRel
}
