package x86

import (
	"errors"
	"fmt"
)

// ErrTruncated is returned when the byte slice ends in the middle of an
// instruction.
var ErrTruncated = errors.New("x86: truncated instruction")

// ErrBadInstruction is returned for byte sequences outside the supported
// subset. Superset disassembly treats such addresses as invalid blocks.
var ErrBadInstruction = errors.New("x86: invalid instruction")

// Decode decodes a single instruction from the start of b, returning the
// instruction and its encoded length. Arbitrary byte sequences are safe to
// pass; undecodable input yields ErrBadInstruction or ErrTruncated.
//
// Byte registers are always decoded in their REX-style meaning (SPL..DIL
// rather than AH..BH); the legacy high-byte registers are outside the
// supported subset.
//
// A 0x66 prefix selects 16-bit operands where the subset has them (mov,
// ALU, test, imul). On push and pop without REX.W it would make a 16-bit
// stack operation, so those are rejected with ErrBadInstruction, like an
// FS prefix with no memory operand: re-encoding would drop the prefix.
// On near branches the prefix is accepted and ignored, as Intel CPUs do
// in 64-bit mode.
func Decode(b []byte) (Inst, int, error) {
	d := decoder{b: b}
	in, err := d.decode()
	if err != nil {
		return Inst{}, 0, err
	}
	if d.pos > MaxInstLen {
		return Inst{}, 0, ErrBadInstruction
	}
	return in, d.pos, nil
}

type decoder struct {
	b   []byte
	pos int

	rex     byte
	hasRex  bool
	opSize  bool // 0x66 prefix
	notrack bool // 0x3E prefix
	rep     bool // 0xF3 prefix
	fs      bool // 0x64 prefix (FS segment override, TLS access)
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, ErrTruncated
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) i8() (int64, error) {
	v, err := d.u8()
	return int64(int8(v)), err
}

func (d *decoder) i16() (int64, error) {
	if d.pos+2 > len(d.b) {
		return 0, ErrTruncated
	}
	v := int64(int16(uint16(d.b[d.pos]) | uint16(d.b[d.pos+1])<<8))
	d.pos += 2
	return v, nil
}

func (d *decoder) i32() (int64, error) {
	if d.pos+4 > len(d.b) {
		return 0, ErrTruncated
	}
	v := int64(int32(uint32(d.b[d.pos]) | uint32(d.b[d.pos+1])<<8 |
		uint32(d.b[d.pos+2])<<16 | uint32(d.b[d.pos+3])<<24))
	d.pos += 4
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	if d.pos+8 > len(d.b) {
		return 0, ErrTruncated
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(d.b[d.pos+i]) << (8 * i)
	}
	d.pos += 8
	return int64(v), nil
}

// width returns the operand width implied by the active prefixes for a
// non-byte instruction form.
func (d *decoder) width() uint8 {
	if d.rex&rexW != 0 {
		return 8
	}
	if d.opSize {
		return 2
	}
	return 4
}

func (d *decoder) regField(modrm byte) Reg {
	return Reg((modrm >> 3 & 0x7) | (d.rex & rexR << 1))
}

// modRM parses a ModRM byte (and any SIB/displacement) returning the reg
// field and the r/m operand.
func (d *decoder) modRM() (Reg, Arg, error) {
	modrm, err := d.u8()
	if err != nil {
		return 0, Arg{}, err
	}
	reg := d.regField(modrm)
	mod := modrm >> 6
	rm := modrm & 0x7

	if mod == 3 {
		return reg, Reg(rm | d.rex&rexB<<3).Arg(), nil
	}

	var m Mem
	m.Base, m.Index = NoReg, NoReg
	m.Scale = 1

	if rm == 0x4 { // SIB
		sib, err := d.u8()
		if err != nil {
			return 0, Arg{}, err
		}
		idx := Reg(sib>>3&0x7 | d.rex&rexX<<2)
		if idx != RSP { // index=100 with REX.X=0 means "no index"
			// The scale bits mean nothing without an index; leaving
			// Scale at 1 then keeps equal operands equal.
			m.Index = idx
			m.Scale = 1 << (sib >> 6)
		}
		base := Reg(sib&0x7 | d.rex&rexB<<3)
		if base.lowBits() == 0x5 && mod == 0 {
			// No base, disp32 follows.
			disp, err := d.i32()
			if err != nil {
				return 0, Arg{}, err
			}
			m.Disp = int32(disp)
			return reg, m.Arg(), nil
		}
		m.Base = base
	} else if rm == 0x5 && mod == 0 {
		// RIP-relative.
		disp, err := d.i32()
		if err != nil {
			return 0, Arg{}, err
		}
		m.Rip = true
		m.Disp = int32(disp)
		return reg, m.Arg(), nil
	} else {
		m.Base = Reg(rm | d.rex&rexB<<3)
	}

	switch mod {
	case 1:
		disp, err := d.i8()
		if err != nil {
			return 0, Arg{}, err
		}
		m.Disp = int32(disp)
	case 2:
		disp, err := d.i32()
		if err != nil {
			return 0, Arg{}, err
		}
		m.Disp = int32(disp)
		m.Wide = true
	}
	return reg, m.Arg(), nil
}

// skipModRM consumes a ModRM byte and its SIB/displacement without
// interpreting the operand (used for multi-byte NOP forms).
func (d *decoder) skipModRM() error {
	_, _, err := d.modRM()
	return err
}

func (d *decoder) immForWidth(w uint8) (int64, error) {
	switch w {
	case 1:
		return d.i8()
	case 2:
		return d.i16()
	default:
		return d.i32()
	}
}

// aluByDigit maps the /digit of the 80/81/83 immediate group to its Op.
// The r/m,r opcode bases hit the same table via base>>3 (0x00>>3 == 0,
// 0x08>>3 == 1, ..., 0x38>>3 == 7), so one flat array serves both.
var aluByDigit = [8]Op{ADD, OR, BAD, BAD, AND, SUB, XOR, CMP}

func (d *decoder) decode() (Inst, error) {
	// Prefix loop.
	for {
		op, err := d.u8()
		if err != nil {
			return Inst{}, err
		}
		switch op {
		case 0x66:
			d.opSize = true
			continue
		case 0x3E:
			d.notrack = true
			continue
		case 0xF3:
			d.rep = true
			continue
		case 0x64:
			d.fs = true
			continue
		}
		if op&0xF0 == 0x40 { // REX
			d.rex = op & 0x0F
			d.hasRex = true
			continue
		}
		in, err := d.decodeOp(op)
		if err == nil && d.fs {
			in, err = applyFS(in)
		}
		return in, err
	}
}

// applyFS attaches a decoded 0x64 prefix to the instruction's memory
// operand. An FS prefix on an instruction without one would be silently
// dropped on re-encode, breaking decode/encode byte-stability, so it is
// rejected instead.
func applyFS(in Inst) (Inst, error) {
	if m, ok := in.Dst.AsMem(); ok {
		m.FS = true
		in.Dst = m.Arg()
		return in, nil
	}
	if m, ok := in.Src.AsMem(); ok {
		m.FS = true
		in.Src = m.Arg()
		return in, nil
	}
	return Inst{}, ErrBadInstruction
}

func (d *decoder) decodeOp(op byte) (Inst, error) {
	switch {
	case op == 0x0F:
		return d.decode0F()

	case isALUBase(op&0xF8) && op&0x07 <= 0x03:
		return d.decodeALURM(op)

	case (op >= 0x50 && op <= 0x5F || op == 0x68 || op == 0x6A) && d.opSize && d.rex&rexW == 0:
		// 0x66 makes push/pop a 16-bit stack operation (and shortens
		// push imm32 to imm16), which the subset does not model and
		// re-encoding would silently widen.
		return Inst{}, ErrBadInstruction

	case op >= 0x50 && op <= 0x57:
		return Inst{Op: PUSH, Src: Reg(op - 0x50 | d.rex&rexB<<3).Arg()}, nil
	case op >= 0x58 && op <= 0x5F:
		return Inst{Op: POP, Dst: Reg(op - 0x58 | d.rex&rexB<<3).Arg()}, nil

	case op == 0x63:
		if d.rex&rexW == 0 {
			return Inst{}, ErrBadInstruction
		}
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOVSXD, W: 8, SrcW: 4, Dst: reg.Arg(), Src: rm}, nil

	case op == 0x68:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, Src: Imm(v).Arg()}, nil
	case op == 0x6A:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, Src: Imm(v).Arg()}, nil

	case op == 0x69 || op == 0x6B:
		w := d.width()
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		var v int64
		if op == 0x6B {
			v, err = d.i8()
		} else {
			v, err = d.immForWidth(w)
		}
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL, W: w, Dst: reg.Arg(), Src: rm, Imm3: v, HasImm3: true}, nil

	case op >= 0x70 && op <= 0x7F:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: JCC, Cond: Cond(op - 0x70), Src: Rel(v).Arg()}, nil

	case op == 0x80 || op == 0x81 || op == 0x83:
		return d.decodeALUImm(op)

	case op == 0x84 || op == 0x85:
		w := uint8(1)
		if op == 0x85 {
			w = d.width()
		}
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: TEST, W: w, Dst: rm, Src: reg.Arg()}, nil

	case op >= 0x88 && op <= 0x8B:
		return d.decodeMovRM(op)

	case op == 0x8D:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		m, ok := rm.AsMem()
		if !ok {
			return Inst{}, ErrBadInstruction
		}
		return Inst{Op: LEA, W: d.width(), Dst: reg.Arg(), Src: m.Arg()}, nil

	case op == 0x90:
		if d.hasRex && d.rex&rexB != 0 {
			return Inst{}, ErrBadInstruction // xchg r8, rax: unsupported
		}
		return Inst{Op: NOP}, nil

	case op == 0x99:
		return Inst{Op: CQO, W: d.width()}, nil

	case op >= 0xB0 && op <= 0xB7:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, W: 1, Dst: Reg(op - 0xB0 | d.rex&rexB<<3).Arg(), Src: Imm(v).Arg()}, nil

	case op >= 0xB8 && op <= 0xBF:
		r := Reg(op - 0xB8 | d.rex&rexB<<3)
		if d.rex&rexW != 0 {
			v, err := d.i64()
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: MOV, W: 8, Dst: r.Arg(), Src: Imm(v).Arg()}, nil
		}
		w := d.width()
		v, err := d.immForWidth(w)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, W: w, Dst: r.Arg(), Src: Imm(v).Arg()}, nil

	case op == 0xC0 || op == 0xC1 || op == 0xD0 || op == 0xD1 || op == 0xD2 || op == 0xD3:
		return d.decodeShift(op)

	case op == 0xC3:
		return Inst{Op: RET}, nil

	case op == 0xC6 || op == 0xC7:
		w := uint8(1)
		if op == 0xC7 {
			w = d.width()
		}
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if reg.lowBits() != 0 || reg.hiBit() != 0 {
			return Inst{}, ErrBadInstruction
		}
		immW := w
		if w == 8 {
			immW = 4
		}
		v, err := d.immForWidth(immW)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, W: w, Dst: rm, Src: Imm(v).Arg()}, nil

	case op == 0xCC:
		return Inst{Op: INT3}, nil

	case op == 0xE8:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: CALL, Src: Rel(v).Arg()}, nil
	case op == 0xE9:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: JMP, Src: Rel(v).Arg(), LongBranch: true}, nil
	case op == 0xEB:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: JMP, Src: Rel(v).Arg()}, nil

	case op == 0xF4:
		return Inst{Op: HLT}, nil

	case op == 0xF6 || op == 0xF7:
		return d.decodeGroup3(op)

	case op == 0xFF:
		return d.decodeGroup5()
	}
	return Inst{}, ErrBadInstruction
}

func isALUBase(b byte) bool {
	switch b {
	case 0x00, 0x08, 0x20, 0x28, 0x30, 0x38:
		return true
	}
	return false
}

func (d *decoder) decodeALURM(op byte) (Inst, error) {
	base := op & 0xF8
	form := op & 0x07
	aluOp := aluByDigit[base>>3]
	w := uint8(1)
	if form&1 == 1 {
		w = d.width()
	}
	reg, rm, err := d.modRM()
	if err != nil {
		return Inst{}, err
	}
	if form <= 1 {
		// op r/m, r
		return Inst{Op: aluOp, W: w, Dst: rm, Src: reg.Arg()}, nil
	}
	// op r, r/m
	return Inst{Op: aluOp, W: w, Dst: reg.Arg(), Src: rm}, nil
}

func (d *decoder) decodeALUImm(op byte) (Inst, error) {
	w := uint8(1)
	if op != 0x80 {
		w = d.width()
	}
	modrmPos := d.pos
	if modrmPos >= len(d.b) {
		return Inst{}, ErrTruncated
	}
	digit := d.b[modrmPos] >> 3 & 0x7
	aluOp := aluByDigit[digit]
	if aluOp == BAD {
		return Inst{}, ErrBadInstruction
	}
	_, rm, err := d.modRM()
	if err != nil {
		return Inst{}, err
	}
	var v int64
	if op == 0x83 || op == 0x80 {
		v, err = d.i8()
	} else {
		v, err = d.immForWidth(w)
	}
	if err != nil {
		return Inst{}, err
	}
	return Inst{Op: aluOp, W: w, Dst: rm, Src: Imm(v).Arg()}, nil
}

func (d *decoder) decodeMovRM(op byte) (Inst, error) {
	w := uint8(1)
	if op&1 == 1 {
		w = d.width()
	}
	reg, rm, err := d.modRM()
	if err != nil {
		return Inst{}, err
	}
	if op <= 0x89 {
		return Inst{Op: MOV, W: w, Dst: rm, Src: reg.Arg()}, nil
	}
	return Inst{Op: MOV, W: w, Dst: reg.Arg(), Src: rm}, nil
}

var shiftByDigit = [8]Op{BAD, BAD, BAD, BAD, SHL, SHR, BAD, SAR}

func (d *decoder) decodeShift(op byte) (Inst, error) {
	w := uint8(1)
	if op&1 == 1 {
		w = d.width()
	}
	if d.pos >= len(d.b) {
		return Inst{}, ErrTruncated
	}
	digit := d.b[d.pos] >> 3 & 0x7
	shOp := shiftByDigit[digit]
	if shOp == BAD {
		return Inst{}, ErrBadInstruction
	}
	_, rm, err := d.modRM()
	if err != nil {
		return Inst{}, err
	}
	switch op {
	case 0xC0, 0xC1:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: shOp, W: w, Dst: rm, Src: Imm(v).Arg()}, nil
	case 0xD0, 0xD1:
		return Inst{Op: shOp, W: w, Dst: rm, Src: Imm(1).Arg()}, nil
	default: // D2, D3: shift by CL
		return Inst{Op: shOp, W: w, Dst: rm, Src: RCX.Arg()}, nil
	}
}

func (d *decoder) decodeGroup3(op byte) (Inst, error) {
	w := uint8(1)
	if op == 0xF7 {
		w = d.width()
	}
	if d.pos >= len(d.b) {
		return Inst{}, ErrTruncated
	}
	digit := d.b[d.pos] >> 3 & 0x7
	switch digit {
	case 0: // test r/m, imm
		_, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		immW := w
		if w == 8 {
			immW = 4
		}
		v, err := d.immForWidth(immW)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: TEST, W: w, Dst: rm, Src: Imm(v).Arg()}, nil
	case 2, 3, 7:
		_, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		g3op := NOT
		switch digit {
		case 3:
			g3op = NEG
		case 7:
			g3op = IDIV
		}
		return Inst{Op: g3op, W: w, Dst: rm}, nil
	}
	return Inst{}, ErrBadInstruction
}

func (d *decoder) decodeGroup5() (Inst, error) {
	if d.pos >= len(d.b) {
		return Inst{}, ErrTruncated
	}
	digit := d.b[d.pos] >> 3 & 0x7
	_, rm, err := d.modRM()
	if err != nil {
		return Inst{}, err
	}
	switch digit {
	case 2:
		return Inst{Op: CALL, Src: rm, NoTrack: d.notrack}, nil
	case 4:
		return Inst{Op: JMP, Src: rm, NoTrack: d.notrack}, nil
	}
	return Inst{}, ErrBadInstruction
}

func (d *decoder) decode0F() (Inst, error) {
	op, err := d.u8()
	if err != nil {
		return Inst{}, err
	}
	switch {
	case op == 0x05:
		return Inst{Op: SYSCALL}, nil
	case op == 0x0B:
		return Inst{Op: UD2}, nil
	case op == 0x1E:
		// endbr64 is F3 0F 1E FA.
		next, err := d.u8()
		if err != nil {
			return Inst{}, err
		}
		if d.rep && next == 0xFA {
			return Inst{Op: ENDBR64}, nil
		}
		return Inst{}, ErrBadInstruction
	case op == 0x1F:
		// Multi-byte NOP: 0F 1F /0 with arbitrary ModRM.
		if err := d.skipModRM(); err != nil {
			return Inst{}, err
		}
		return Inst{Op: NOP}, nil
	case op >= 0x40 && op <= 0x4F:
		w := d.width()
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: CMOVCC, Cond: Cond(op - 0x40), W: w, Dst: reg.Arg(), Src: rm}, nil
	case op >= 0x80 && op <= 0x8F:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: JCC, Cond: Cond(op - 0x80), Src: Rel(v).Arg(), LongBranch: true}, nil
	case op >= 0x90 && op <= 0x9F:
		_, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: SETCC, Cond: Cond(op - 0x90), Dst: rm, W: 1}, nil
	case op == 0xAF:
		w := d.width()
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL, W: w, Dst: reg.Arg(), Src: rm}, nil
	case op == 0xB6 || op == 0xB7 || op == 0xBE || op == 0xBF:
		w := d.width()
		if w == 2 {
			return Inst{}, ErrBadInstruction
		}
		srcW := uint8(1)
		if op == 0xB7 || op == 0xBF {
			srcW = 2
		}
		mvOp := MOVZX
		if op >= 0xBE {
			mvOp = MOVSX
		}
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mvOp, W: w, SrcW: srcW, Dst: reg.Arg(), Src: rm}, nil
	}
	return Inst{}, ErrBadInstruction
}

// DecodeAll decodes consecutive instructions until the buffer is exhausted
// or an undecodable sequence is hit, returning the instructions and their
// offsets. It is a convenience for tests and tools.
func DecodeAll(b []byte) (insts []Inst, offsets []int, err error) {
	for pos := 0; pos < len(b); {
		in, n, derr := Decode(b[pos:])
		if derr != nil {
			return insts, offsets, fmt.Errorf("at offset %#x: %w", pos, derr)
		}
		insts = append(insts, in)
		offsets = append(offsets, pos)
		pos += n
	}
	return insts, offsets, nil
}
