package x86

import (
	"encoding/binary"
	"fmt"
)

// Encode returns the machine-code bytes for the instruction. Branch
// displacements are encoded with the smallest form that fits (rel8 when
// possible, except CALL which only has a rel32 form). Encode is
// deterministic: equal instructions produce equal bytes.
func Encode(in Inst) ([]byte, error) {
	var e encoder
	if err := e.encode(in); err != nil {
		return nil, encodeErr(in, err)
	}
	return e.appendTo(make([]byte, 0, MaxInstLen)), nil
}

// EncodeAppend appends the encoding of in to dst and returns the extended
// slice. It allocates nothing beyond dst's own growth, which makes it the
// hot-path form for the assembler's emit loop.
func EncodeAppend(dst []byte, in Inst) ([]byte, error) {
	var e encoder
	if err := e.encode(in); err != nil {
		return dst, encodeErr(in, err)
	}
	return e.appendTo(dst), nil
}

// EncodedLen returns the length Encode would produce, without building
// (or allocating) the bytes. Branch relaxation calls this in a loop, so
// it must stay allocation-free.
func EncodedLen(in Inst) (int, error) {
	var e encoder
	if err := e.encode(in); err != nil {
		return 0, encodeErr(in, err)
	}
	return e.encodedLen(), nil
}

// encodeErr builds the error off the hot path; keeping the fmt call out
// of the callers stops `in` from escaping on the success path.
//
//go:noinline
func encodeErr(in Inst, err error) error {
	return fmt.Errorf("encode %s: %w", in, err)
}

// MaxInstLen is the architectural x86-64 instruction length limit.
const MaxInstLen = 15

// encoder accumulates the pieces of one instruction encoding in fixed
// buffers, so encoding performs no heap allocation.
type encoder struct {
	prefix  [3]byte
	nprefix uint8
	rex     byte // REX bits beyond 0x40; see needRex
	needRex bool // force emission of a REX prefix even if rex == 0
	opcode  [4]byte
	nopcode uint8
	modrm   byte
	hasMod  bool
	sib     byte
	hasSib  bool
	disp    [4]byte
	ndisp   uint8
	imm     [8]byte
	nimm    uint8
}

// op sets the opcode bytes.
func (e *encoder) op(b ...byte) {
	e.nopcode = uint8(copy(e.opcode[:], b))
}

func (e *encoder) addPrefix(b byte) {
	e.prefix[e.nprefix] = b
	e.nprefix++
}

func (e *encoder) disp8(v int8) {
	e.disp[0] = byte(v)
	e.ndisp = 1
}

func (e *encoder) disp32(v int32) {
	binary.LittleEndian.PutUint32(e.disp[:4], uint32(v))
	e.ndisp = 4
}

func (e *encoder) appendTo(out []byte) []byte {
	out = append(out, e.prefix[:e.nprefix]...)
	if e.rex != 0 || e.needRex {
		out = append(out, 0x40|e.rex)
	}
	out = append(out, e.opcode[:e.nopcode]...)
	if e.hasMod {
		out = append(out, e.modrm)
		if e.hasSib {
			out = append(out, e.sib)
		}
	}
	out = append(out, e.disp[:e.ndisp]...)
	out = append(out, e.imm[:e.nimm]...)
	return out
}

func (e *encoder) encodedLen() int {
	n := int(e.nprefix) + int(e.nopcode) + int(e.ndisp) + int(e.nimm)
	if e.rex != 0 || e.needRex {
		n++
	}
	if e.hasMod {
		n++
		if e.hasSib {
			n++
		}
	}
	return n
}

const (
	rexW = 0x8
	rexR = 0x4
	rexX = 0x2
	rexB = 0x1
)

func (e *encoder) setW(w uint8) {
	if w == 8 {
		e.rex |= rexW
	}
	if w == 2 {
		e.addPrefix(0x66)
	}
}

// byteRegNeedsRex reports whether using r as an 8-bit register requires a
// REX prefix to select SPL/BPL/SIL/DIL instead of AH/CH/DH/BH.
func byteRegNeedsRex(r Reg) bool { return r >= RSP && r <= RDI }

// setReg places r in the ModRM reg field.
func (e *encoder) setReg(r Reg, w uint8) {
	e.modrm |= r.lowBits() << 3
	e.rex |= r.hiBit() << 2 // REX.R
	if w == 1 && byteRegNeedsRex(r) {
		e.needRex = true
	}
}

// setOpReg folds r into the low bits of the last opcode byte (push/pop/
// mov-imm forms).
func (e *encoder) setOpReg(r Reg, w uint8) {
	e.opcode[e.nopcode-1] |= r.lowBits()
	e.rex |= r.hiBit() // REX.B
	if w == 1 && byteRegNeedsRex(r) {
		e.needRex = true
	}
}

// setRM encodes the r/m operand (register or memory). Operands are
// passed by pointer here and in setMem: an Arg passed by value travels
// in eight registers, and spilling it back to memory field by field
// stalls the first whole-struct read.
func (e *encoder) setRM(a *Arg, w uint8) error {
	e.hasMod = true
	switch a.Kind {
	case ArgReg:
		v := a.Base
		if !v.Valid() {
			return fmt.Errorf("invalid register operand")
		}
		e.modrm |= 0xC0 | v.lowBits()
		e.rex |= v.hiBit() // REX.B
		if w == 1 && byteRegNeedsRex(v) {
			e.needRex = true
		}
		return nil
	case ArgMem:
		return e.setMem(a)
	default:
		return fmt.Errorf("operand %v cannot be encoded as r/m", *a)
	}
}

// setMem encodes the ArgMem operand m.
func (e *encoder) setMem(m *Arg) error {
	e.hasMod = true
	if m.FS {
		if m.Rip {
			return fmt.Errorf("FS override cannot combine with RIP-relative addressing")
		}
		e.addPrefix(0x64)
	}
	if m.Rip {
		if m.Base.Valid() || m.Index.Valid() {
			return fmt.Errorf("RIP-relative operand cannot have base or index")
		}
		e.modrm |= 0x05 // mod=00 rm=101
		e.disp32(int32(m.Val))
		return nil
	}
	if m.Index == RSP {
		return fmt.Errorf("RSP cannot be an index register")
	}
	if m.Index.Valid() {
		switch m.Scale {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("invalid scale %d", m.Scale)
		}
	}

	needSIB := m.Index.Valid() || !m.Base.Valid() || m.Base.lowBits() == 0x4
	if !needSIB {
		// Plain [base + disp].
		e.modrm |= m.Base.lowBits()
		e.rex |= m.Base.hiBit() // REX.B
		e.setDispModWide(m.Base, int32(m.Val), m.Wide)
		return nil
	}

	e.hasSib = true
	e.modrm |= 0x04 // rm=100: SIB follows
	if m.Index.Valid() {
		e.sib |= scaleBits(m.Scale) << 6
		e.sib |= m.Index.lowBits() << 3
		e.rex |= m.Index.hiBit() << 1 // REX.X
	} else {
		e.sib |= 0x04 << 3 // no index
	}
	if m.Base.Valid() {
		e.sib |= m.Base.lowBits()
		e.rex |= m.Base.hiBit() // REX.B
		e.setDispModWide(m.Base, int32(m.Val), m.Wide)
	} else {
		// No base: SIB base=101 with mod=00 means disp32 only.
		e.sib |= 0x05
		e.disp32(int32(m.Val))
	}
	return nil
}

func (e *encoder) setDispModWide(base Reg, disp int32, wide bool) {
	// mod=00 with base RBP/R13 would mean RIP-relative / disp32-only, so
	// those bases always need an explicit displacement.
	if !wide && disp == 0 && base.lowBits() != 0x5 {
		return // mod=00, no disp
	}
	if !wide && disp >= -128 && disp <= 127 {
		e.modrm |= 0x40 // mod=01
		e.disp8(int8(disp))
		return
	}
	e.modrm |= 0x80 // mod=10
	e.disp32(disp)
}

func scaleBits(s uint8) byte {
	switch s {
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	default:
		return 0
	}
}

func (e *encoder) setImm(v int64, size int) {
	switch size {
	case 1:
		e.imm[0] = byte(int8(v))
		e.nimm = 1
	case 2:
		binary.LittleEndian.PutUint16(e.imm[:2], uint16(v))
		e.nimm = 2
	case 4:
		binary.LittleEndian.PutUint32(e.imm[:4], uint32(v))
		e.nimm = 4
	case 8:
		binary.LittleEndian.PutUint64(e.imm[:8], uint64(v))
		e.nimm = 8
	}
}

func fitsInt8(v int64) bool  { return v >= -128 && v <= 127 }
func fitsInt32(v int64) bool { return v >= -1<<31 && v <= 1<<31-1 }

// ALU op tables: the /digit for the 80/81/83 immediate group and the
// r/m,r opcode base. Flat arrays indexed by Op keep the encoder's hot
// path free of map lookups.
var aluDigit = [numOps]byte{ADD: 0, OR: 1, AND: 4, SUB: 5, XOR: 6, CMP: 7}
var aluBase = [numOps]byte{ADD: 0x00, OR: 0x08, AND: 0x20, SUB: 0x28, XOR: 0x30, CMP: 0x38}

var shiftDigit = [numOps]byte{SHL: 4, SHR: 5, SAR: 7}

func (e *encoder) encode(in Inst) error {
	switch in.Op {
	case ENDBR64:
		e.op(0xF3, 0x0F, 0x1E, 0xFA)
		return nil
	case NOP:
		e.op(0x90)
		return nil
	case SYSCALL:
		e.op(0x0F, 0x05)
		return nil
	case UD2:
		e.op(0x0F, 0x0B)
		return nil
	case HLT:
		e.op(0xF4)
		return nil
	case INT3:
		e.op(0xCC)
		return nil
	case RET:
		e.op(0xC3)
		return nil
	case CQO:
		e.setW(widthOrDefault(in.W))
		e.op(0x99)
		return nil
	case PUSH:
		return e.encodePush(in)
	case POP:
		r, ok := in.Dst.AsReg()
		if !ok {
			return fmt.Errorf("pop requires a register operand")
		}
		e.op(0x58)
		e.setOpReg(r, 8)
		return nil
	case MOV:
		return e.encodeMov(in)
	case MOVZX, MOVSX:
		return e.encodeMovx(in)
	case MOVSXD:
		return e.encodeMovsxd(in)
	case LEA:
		return e.encodeLea(in)
	case ADD, OR, AND, SUB, XOR, CMP:
		return e.encodeALU(in)
	case TEST:
		return e.encodeTest(in)
	case IMUL:
		return e.encodeImul(in)
	case IDIV, NEG, NOT:
		return e.encodeGroup3(in)
	case SHL, SHR, SAR:
		return e.encodeShift(in)
	case JMP:
		return e.encodeJmp(in)
	case JCC:
		return e.encodeJcc(in)
	case CALL:
		return e.encodeCall(in)
	case SETCC:
		return e.encodeSetcc(in)
	case CMOVCC:
		return e.encodeCmovcc(in)
	default:
		return fmt.Errorf("unsupported op %v", in.Op)
	}
}

func widthOrDefault(w uint8) uint8 {
	if w == 0 {
		return 8
	}
	return w
}

func (e *encoder) encodePush(in Inst) error {
	switch in.Src.Kind {
	case ArgReg:
		v, _ := in.Src.AsReg()
		e.op(0x50)
		e.setOpReg(v, 8)
		return nil
	case ArgImm:
		v, _ := in.Src.AsImm()
		if fitsInt8(int64(v)) {
			e.op(0x6A)
			e.setImm(int64(v), 1)
		} else if fitsInt32(int64(v)) {
			e.op(0x68)
			e.setImm(int64(v), 4)
		} else {
			return fmt.Errorf("push immediate out of range")
		}
		return nil
	default:
		return fmt.Errorf("unsupported push operand")
	}
}

func (e *encoder) encodeMov(in Inst) error {
	w := widthOrDefault(in.W)
	switch in.Dst.Kind {
	case ArgReg:
		dst, _ := in.Dst.AsReg()
		switch in.Src.Kind {
		case ArgReg, ArgMem:
			src := &in.Src
			// mov r, r/m: 8A (byte) / 8B
			e.setW(w)
			if w == 1 {
				e.op(0x8A)
			} else {
				e.op(0x8B)
			}
			e.setReg(dst, w)
			return e.setRM(src, w)
		case ArgImm:
			src, _ := in.Src.AsImm()
			v := int64(src)
			if w == 8 && !fitsInt32(v) {
				// movabs r64, imm64
				e.setW(8)
				e.op(0xB8)
				e.setOpReg(dst, 8)
				e.setImm(v, 8)
				return nil
			}
			if w == 8 {
				// C7 /0 id, sign-extended
				e.setW(8)
				e.op(0xC7)
				e.setImm(v, 4)
				return e.setRM(&in.Dst, 8)
			}
			if w == 1 {
				e.op(0xB0)
				e.setOpReg(dst, 1)
				e.setImm(v, 1)
				return nil
			}
			e.setW(w)
			e.op(0xB8)
			e.setOpReg(dst, w)
			e.setImm(v, int(w))
			return nil
		}
	case ArgMem:
		dst := &in.Dst
		switch in.Src.Kind {
		case ArgReg:
			src, _ := in.Src.AsReg()
			// mov r/m, r: 88 (byte) / 89
			e.setW(w)
			if w == 1 {
				e.op(0x88)
			} else {
				e.op(0x89)
			}
			e.setReg(src, w)
			return e.setRM(dst, w)
		case ArgImm:
			src, _ := in.Src.AsImm()
			v := int64(src)
			e.setW(w)
			if w == 1 {
				e.op(0xC6)
				if err := e.setRM(dst, w); err != nil {
					return err
				}
				e.setImm(v, 1)
				return nil
			}
			if !fitsInt32(v) {
				return fmt.Errorf("mov m, imm out of range")
			}
			e.op(0xC7)
			if err := e.setRM(dst, w); err != nil {
				return err
			}
			immW := 4
			if w == 2 {
				immW = 2
			}
			e.setImm(v, immW)
			return nil
		}
	}
	return fmt.Errorf("unsupported mov operand combination")
}

func (e *encoder) encodeMovx(in Inst) error {
	dst, ok := in.Dst.AsReg()
	if !ok {
		return fmt.Errorf("movzx/movsx destination must be a register")
	}
	w := widthOrDefault(in.W)
	e.setW(w)
	var op byte
	switch {
	case in.Op == MOVZX && in.SrcW == 1:
		op = 0xB6
	case in.Op == MOVZX && in.SrcW == 2:
		op = 0xB7
	case in.Op == MOVSX && in.SrcW == 1:
		op = 0xBE
	case in.Op == MOVSX && in.SrcW == 2:
		op = 0xBF
	default:
		return fmt.Errorf("movzx/movsx requires SrcW of 1 or 2")
	}
	e.op(0x0F, op)
	e.setReg(dst, w)
	return e.setRM(&in.Src, in.SrcW)
}

func (e *encoder) encodeMovsxd(in Inst) error {
	dst, ok := in.Dst.AsReg()
	if !ok {
		return fmt.Errorf("movsxd destination must be a register")
	}
	e.setW(8)
	e.op(0x63)
	e.setReg(dst, 8)
	return e.setRM(&in.Src, 4)
}

func (e *encoder) encodeLea(in Inst) error {
	dst, ok := in.Dst.AsReg()
	if !ok {
		return fmt.Errorf("lea destination must be a register")
	}
	if in.Src.Kind != ArgMem {
		return fmt.Errorf("lea source must be a memory operand")
	}
	e.setW(widthOrDefault(in.W))
	e.op(0x8D)
	e.setReg(dst, 8)
	return e.setMem(&in.Src)
}

func (e *encoder) encodeALU(in Inst) error {
	w := widthOrDefault(in.W)
	base := aluBase[in.Op]
	digit := aluDigit[in.Op]
	switch in.Dst.Kind {
	case ArgReg:
		dst, _ := in.Dst.AsReg()
		switch in.Src.Kind {
		case ArgReg, ArgMem:
			src := &in.Src
			// op r, r/m
			e.setW(w)
			if w == 1 {
				e.op(base + 0x02)
			} else {
				e.op(base + 0x03)
			}
			e.setReg(dst, w)
			return e.setRM(src, w)
		case ArgImm:
			src, _ := in.Src.AsImm()
			return e.encodeALUImm(in.Op, &in.Dst, int64(src), w, digit)
		}
	case ArgMem:
		dst := &in.Dst
		switch in.Src.Kind {
		case ArgReg:
			src, _ := in.Src.AsReg()
			e.setW(w)
			if w == 1 {
				e.op(base)
			} else {
				e.op(base + 0x01)
			}
			e.setReg(src, w)
			return e.setRM(dst, w)
		case ArgImm:
			src, _ := in.Src.AsImm()
			return e.encodeALUImm(in.Op, dst, int64(src), w, digit)
		}
	}
	return fmt.Errorf("unsupported %v operand combination", in.Op)
}

func (e *encoder) encodeALUImm(op Op, dst *Arg, v int64, w uint8, digit byte) error {
	e.setW(w)
	e.modrm |= digit << 3
	if w == 1 {
		e.op(0x80)
		if err := e.setRM(dst, w); err != nil {
			return err
		}
		e.setImm(v, 1)
		return nil
	}
	if fitsInt8(v) {
		e.op(0x83)
		if err := e.setRM(dst, w); err != nil {
			return err
		}
		e.setImm(v, 1)
		return nil
	}
	if !fitsInt32(v) {
		return fmt.Errorf("%v immediate out of range", op)
	}
	e.op(0x81)
	if err := e.setRM(dst, w); err != nil {
		return err
	}
	immW := 4
	if w == 2 {
		immW = 2
	}
	e.setImm(v, immW)
	return nil
}

func (e *encoder) encodeTest(in Inst) error {
	w := widthOrDefault(in.W)
	switch in.Src.Kind {
	case ArgReg:
		src, _ := in.Src.AsReg()
		e.setW(w)
		if w == 1 {
			e.op(0x84)
		} else {
			e.op(0x85)
		}
		e.setReg(src, w)
		return e.setRM(&in.Dst, w)
	case ArgImm:
		src, _ := in.Src.AsImm()
		e.setW(w)
		if w == 1 {
			e.op(0xF6)
		} else {
			e.op(0xF7)
		}
		if err := e.setRM(&in.Dst, w); err != nil {
			return err
		}
		switch {
		case w == 1:
			e.setImm(int64(src), 1)
		case w == 2:
			e.setImm(int64(src), 2)
		default:
			if !fitsInt32(int64(src)) {
				return fmt.Errorf("test immediate out of range")
			}
			e.setImm(int64(src), 4)
		}
		return nil
	}
	return fmt.Errorf("unsupported test operand combination")
}

func (e *encoder) encodeImul(in Inst) error {
	dst, ok := in.Dst.AsReg()
	if !ok {
		return fmt.Errorf("imul destination must be a register")
	}
	w := widthOrDefault(in.W)
	e.setW(w)
	if in.HasImm3 {
		if fitsInt8(in.Imm3) {
			e.op(0x6B)
			e.setReg(dst, w)
			if err := e.setRM(&in.Src, w); err != nil {
				return err
			}
			e.setImm(in.Imm3, 1)
			return nil
		}
		if !fitsInt32(in.Imm3) {
			return fmt.Errorf("imul immediate out of range")
		}
		e.op(0x69)
		e.setReg(dst, w)
		if err := e.setRM(&in.Src, w); err != nil {
			return err
		}
		immW := 4
		if w == 2 {
			immW = 2
		}
		e.setImm(in.Imm3, immW)
		return nil
	}
	e.op(0x0F, 0xAF)
	e.setReg(dst, w)
	return e.setRM(&in.Src, w)
}

func (e *encoder) encodeGroup3(in Inst) error {
	w := widthOrDefault(in.W)
	e.setW(w)
	if w == 1 {
		e.op(0xF6)
	} else {
		e.op(0xF7)
	}
	var digit byte
	switch in.Op {
	case NOT:
		digit = 2
	case NEG:
		digit = 3
	case IDIV:
		digit = 7
	}
	e.modrm |= digit << 3
	return e.setRM(&in.Dst, w)
}

func (e *encoder) encodeShift(in Inst) error {
	w := widthOrDefault(in.W)
	e.setW(w)
	e.modrm |= shiftDigit[in.Op] << 3
	switch in.Src.Kind {
	case ArgImm:
		src, _ := in.Src.AsImm()
		if src == 1 {
			if w == 1 {
				e.op(0xD0)
			} else {
				e.op(0xD1)
			}
			return e.setRM(&in.Dst, w)
		}
		if w == 1 {
			e.op(0xC0)
		} else {
			e.op(0xC1)
		}
		if err := e.setRM(&in.Dst, w); err != nil {
			return err
		}
		e.setImm(int64(src), 1)
		return nil
	case ArgReg:
		src, _ := in.Src.AsReg()
		if src != RCX {
			return fmt.Errorf("variable shift count must be CL")
		}
		if w == 1 {
			e.op(0xD2)
		} else {
			e.op(0xD3)
		}
		return e.setRM(&in.Dst, w)
	}
	return fmt.Errorf("unsupported shift operand")
}

func (e *encoder) encodeJmp(in Inst) error {
	switch in.Src.Kind {
	case ArgRel:
		src, _ := in.Src.AsRel()
		if fitsInt8(int64(src)) && !in.LongBranch {
			e.op(0xEB)
			e.setImm(int64(src), 1)
		} else {
			e.op(0xE9)
			e.setImm(int64(src), 4)
		}
		return nil
	case ArgReg, ArgMem:
		src := &in.Src
		if in.NoTrack {
			e.addPrefix(0x3E)
		}
		e.op(0xFF)
		e.modrm |= 4 << 3
		return e.setRM(src, 0) // width-agnostic: always 64-bit
	}
	return fmt.Errorf("unsupported jmp operand")
}

func (e *encoder) encodeJcc(in Inst) error {
	rel, ok := in.Src.AsRel()
	if !ok {
		return fmt.Errorf("jcc requires a relative target")
	}
	if fitsInt8(int64(rel)) && !in.LongBranch {
		e.op(0x70 + byte(in.Cond))
		e.setImm(int64(rel), 1)
		return nil
	}
	e.op(0x0F, 0x80+byte(in.Cond))
	e.setImm(int64(rel), 4)
	return nil
}

func (e *encoder) encodeCall(in Inst) error {
	switch in.Src.Kind {
	case ArgRel:
		src, _ := in.Src.AsRel()
		e.op(0xE8)
		e.setImm(int64(src), 4)
		return nil
	case ArgReg, ArgMem:
		src := &in.Src
		if in.NoTrack {
			e.addPrefix(0x3E)
		}
		e.op(0xFF)
		e.modrm |= 2 << 3
		return e.setRM(src, 0)
	}
	return fmt.Errorf("unsupported call operand")
}

func (e *encoder) encodeSetcc(in Inst) error {
	e.op(0x0F, 0x90+byte(in.Cond))
	return e.setRM(&in.Dst, 1)
}

func (e *encoder) encodeCmovcc(in Inst) error {
	dst, ok := in.Dst.AsReg()
	if !ok {
		return fmt.Errorf("cmov destination must be a register")
	}
	w := widthOrDefault(in.W)
	e.setW(w)
	e.op(0x0F, 0x40+byte(in.Cond))
	e.setReg(dst, w)
	return e.setRM(&in.Src, w)
}

// NopBytes returns n bytes of padding using the recommended multi-byte NOP
// sequences, matching what compilers emit between functions.
func NopBytes(n int) []byte {
	return AppendNopBytes(make([]byte, 0, n), n)
}

// AppendNopBytes appends n bytes of multi-byte-NOP padding to dst.
func AppendNopBytes(dst []byte, n int) []byte {
	for n > 0 {
		k := n
		if k > 9 {
			k = 9
		}
		dst = append(dst, nopSeq[k]...)
		n -= k
	}
	return dst
}

// Recommended multi-byte NOPs (Intel SDM table 4-12).
var nopSeq = [10][]byte{
	1: {0x90},
	2: {0x66, 0x90},
	3: {0x0F, 0x1F, 0x00},
	4: {0x0F, 0x1F, 0x40, 0x00},
	5: {0x0F, 0x1F, 0x44, 0x00, 0x00},
	6: {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
	7: {0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
	8: {0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
	9: {0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
}
