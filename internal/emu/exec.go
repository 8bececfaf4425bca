package emu

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/x86"
)

// ErrDivide is the #DE fault.
var ErrDivide = errors.New("emu: divide error")

func widthBits(w uint8) uint { return uint(w) * 8 }

func truncate(v uint64, w uint8) uint64 {
	if w >= 8 {
		return v
	}
	return v & (1<<widthBits(w) - 1)
}

func signExtend(v uint64, w uint8) uint64 {
	switch w {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}

func signBit(v uint64, w uint8) bool { return v>>(widthBits(w)-1)&1 == 1 }

// getReg reads a register at the given width (zero-extended).
func (m *Machine) getReg(r x86.Reg, w uint8) uint64 {
	return truncate(m.Regs[r], w)
}

// setReg writes a register with x86 width semantics: 64-bit writes are
// full, 32-bit writes zero the upper half, 8-bit writes merge.
func (m *Machine) setReg(r x86.Reg, v uint64, w uint8) {
	switch w {
	case 8:
		m.Regs[r] = v
	case 4:
		m.Regs[r] = v & 0xFFFFFFFF
	case 2:
		m.Regs[r] = m.Regs[r]&^0xFFFF | v&0xFFFF
	case 1:
		m.Regs[r] = m.Regs[r]&^0xFF | v&0xFF
	default:
		m.Regs[r] = v
	}
}

// memAddr computes the effective address of a memory operand; next is the
// address of the following instruction (for RIP-relative operands).
func (m *Machine) memAddr(mem x86.Mem, next uint64) uint64 {
	if mem.Rip {
		return next + uint64(int64(mem.Disp))
	}
	addr := uint64(int64(mem.Disp))
	if mem.FS {
		addr += m.FSBase
	}
	if mem.Base.Valid() {
		addr += m.Regs[mem.Base]
	}
	if mem.Index.Valid() {
		addr += m.Regs[mem.Index] * uint64(mem.Scale)
	}
	return addr
}

// readArg evaluates an operand at width w (zero-extended raw bits).
func (m *Machine) readArg(a *x86.Arg, w uint8, next uint64) (uint64, error) {
	switch a.Kind {
	case x86.ArgReg:
		return m.getReg(a.Base, w), nil
	case x86.ArgImm:
		return truncate(uint64(a.Val), w), nil
	case x86.ArgMem:
		v, _ := a.AsMem()
		return m.Mem.ReadU64(m.memAddr(v, next), int(w))
	}
	return 0, fmt.Errorf("unreadable operand %v", *a)
}

// writeArg stores a value to a register or memory operand at width w.
func (m *Machine) writeArg(a *x86.Arg, v uint64, w uint8, next uint64) error {
	switch a.Kind {
	case x86.ArgReg:
		m.setReg(a.Base, v, w)
		return nil
	case x86.ArgMem:
		d, _ := a.AsMem()
		return m.Mem.WriteU64(m.memAddr(d, next), v, int(w))
	}
	return fmt.Errorf("unwritable operand %v", *a)
}

func parity(v uint64) bool { return bits.OnesCount8(uint8(v))%2 == 0 }

// The value functions below are the one copy of the x86 flag, ALU,
// shift and divide semantics: the interpreter's exec and the tiered
// engine's micro-ops both call them.

func setResultFlags(f *x86.Flags, r uint64, w uint8) {
	f.ZF = r == 0
	f.SF = signBit(r, w)
	f.PF = parity(r)
}

func addFlags(f *x86.Flags, a, b, r uint64, w uint8) {
	if w == 8 {
		f.CF = r < a
	} else {
		f.CF = (a+b)>>widthBits(w) != 0
	}
	f.OF = signBit(^(a^b)&(a^r), w)
	setResultFlags(f, r, w)
}

func subFlags(f *x86.Flags, a, b, r uint64, w uint8) {
	f.CF = a < b
	f.OF = signBit((a^b)&(a^r), w)
	setResultFlags(f, r, w)
}

func logicFlags(f *x86.Flags, r uint64, w uint8) {
	f.CF = false
	f.OF = false
	setResultFlags(f, r, w)
}

// aluCompute is the ADD/SUB/CMP/AND/OR/XOR/TEST core: the result and
// flags of one operation on w-wide operands. wb reports whether the op
// writes its destination.
func aluCompute(f *x86.Flags, op x86.Op, a, b uint64, w uint8) (r uint64, wb bool) {
	switch op {
	case x86.ADD:
		r = truncate(a+b, w)
		addFlags(f, a, b, r, w)
		return r, true
	case x86.SUB, x86.CMP:
		r = truncate(a-b, w)
		subFlags(f, a, b, r, w)
		return r, op == x86.SUB
	case x86.AND, x86.TEST:
		r = a & b
	case x86.OR:
		r = a | b
	case x86.XOR:
		r = a ^ b
	}
	logicFlags(f, r, w)
	return r, op != x86.TEST
}

// shiftCompute is the SHL/SHR/SAR core. count is the raw count operand;
// a masked count of zero changes nothing, flags included, and reports
// wb false.
func shiftCompute(f *x86.Flags, op x86.Op, a, count uint64, w uint8) (r uint64, wb bool) {
	mask := uint64(31)
	if w == 8 {
		mask = 63
	}
	if count &= mask; count == 0 {
		return 0, false
	}
	switch op {
	case x86.SHL:
		r = truncate(a<<count, w)
		f.CF = count <= uint64(widthBits(w)) && a>>(uint64(widthBits(w))-count)&1 == 1
	case x86.SHR:
		r = a >> count
		f.CF = a>>(count-1)&1 == 1
	default: // SAR
		r = truncate(uint64(int64(signExtend(a, w))>>count), w)
		f.CF = signExtend(a, w)>>(count-1)&1 == 1
	}
	setResultFlags(f, r, w)
	return r, true
}

// idivCompute is the IDIV core: the w-wide quotient and remainder of
// RDX:RAX (given as raw register values) divided by div.
func idivCompute(rax, rdx, div uint64, w uint8) (q, r uint64, err error) {
	d := int64(signExtend(div, w))
	if d == 0 {
		return 0, 0, ErrDivide
	}
	lo := int64(signExtend(truncate(rax, w), w))
	hi := int64(signExtend(truncate(rdx, w), w))
	// Only the CQO/CDQ-prepared case (RDX = sign extension of RAX) is a
	// representable 64-bit dividend; anything else overflows the quotient
	// for the divisors our subset produces, which is a #DE fault.
	if hi != lo>>63 {
		return 0, 0, fmt.Errorf("%w (dividend overflow)", ErrDivide)
	}
	if lo == -1<<63 && d == -1 {
		return 0, 0, fmt.Errorf("%w (quotient overflow)", ErrDivide)
	}
	return truncate(uint64(lo/d), w), truncate(uint64(lo%d), w), nil
}

const defaultWidth = 8

func opWidth(w uint8) uint8 {
	if w == 0 {
		return defaultWidth
	}
	return w
}

func (m *Machine) exec(in x86.Inst, size int) error {
	next := m.RIP + uint64(size)
	w := opWidth(in.W)

	switch in.Op {
	case x86.NOP, x86.ENDBR64:
		m.RIP = next
		return nil

	case x86.HLT:
		return errors.New("hlt executed")
	case x86.UD2:
		return errors.New("ud2 executed")
	case x86.INT3:
		return errors.New("int3 executed")

	case x86.SYSCALL:
		m.RIP = next
		return m.syscall()

	case x86.MOV:
		v, err := m.readArg(&in.Src, w, next)
		if err != nil {
			return err
		}
		if err := m.writeArg(&in.Dst, v, w, next); err != nil {
			return err
		}
		m.RIP = next
		return nil

	case x86.MOVZX:
		v, err := m.readArg(&in.Src, in.SrcW, next)
		if err != nil {
			return err
		}
		if err := m.writeArg(&in.Dst, v, w, next); err != nil {
			return err
		}
		m.RIP = next
		return nil

	case x86.MOVSX, x86.MOVSXD:
		v, err := m.readArg(&in.Src, in.SrcW, next)
		if err != nil {
			return err
		}
		if err := m.writeArg(&in.Dst, truncate(signExtend(v, in.SrcW), w), w, next); err != nil {
			return err
		}
		m.RIP = next
		return nil

	case x86.LEA:
		mem, ok := in.Src.AsMem()
		if !ok {
			return errors.New("lea without memory operand")
		}
		m.setReg(in.Dst.Base, m.memAddr(mem, next), w)
		m.RIP = next
		return nil

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		return m.execALU(in, w, next)

	case x86.IMUL:
		return m.execIMul(in, w, next)

	case x86.IDIV:
		return m.execIDiv(in, w, next)

	case x86.CQO:
		if w == 8 {
			m.Regs[x86.RDX] = uint64(int64(m.Regs[x86.RAX]) >> 63)
		} else {
			m.setReg(x86.RDX, uint64(int32(m.Regs[x86.RAX])>>31), 4)
		}
		m.RIP = next
		return nil

	case x86.NEG:
		a, err := m.readArg(&in.Dst, w, next)
		if err != nil {
			return err
		}
		r := truncate(-a, w)
		if err := m.writeArg(&in.Dst, r, w, next); err != nil {
			return err
		}
		subFlags(&m.Flags, 0, a, r, w)
		m.RIP = next
		return nil

	case x86.NOT:
		a, err := m.readArg(&in.Dst, w, next)
		if err != nil {
			return err
		}
		if err := m.writeArg(&in.Dst, truncate(^a, w), w, next); err != nil {
			return err
		}
		m.RIP = next
		return nil

	case x86.SHL, x86.SHR, x86.SAR:
		return m.execShift(in, w, next)

	case x86.PUSH:
		v, err := m.readArg(&in.Src, 8, next)
		if err != nil {
			return err
		}
		m.Regs[x86.RSP] -= 8
		if err := m.Mem.WriteU64(m.Regs[x86.RSP], v, 8); err != nil {
			return err
		}
		m.RIP = next
		return nil

	case x86.POP:
		v, err := m.Mem.ReadU64(m.Regs[x86.RSP], 8)
		if err != nil {
			return err
		}
		m.Regs[x86.RSP] += 8
		m.setReg(in.Dst.Base, v, 8)
		m.RIP = next
		return nil

	case x86.JMP:
		if rel, ok := in.Src.AsRel(); ok {
			m.RIP = next + uint64(int64(rel))
			return nil
		}
		target, err := m.readArg(&in.Src, 8, next)
		if err != nil {
			return err
		}
		if m.Prof != nil && in.NoTrack {
			m.Prof.NotrackBranches++
		}
		if m.EnforceCET && !in.NoTrack {
			m.expectEndbr = true
		}
		m.RIP = target
		return nil

	case x86.JCC:
		rel, ok := in.Src.AsRel()
		if !ok {
			return errors.New("jcc without relative target")
		}
		if in.Cond.Eval(m.Flags) {
			m.RIP = next + uint64(int64(rel))
		} else {
			m.RIP = next
		}
		return nil

	case x86.CALL:
		var target uint64
		if rel, ok := in.Src.AsRel(); ok {
			target = next + uint64(int64(rel))
		} else {
			t, err := m.readArg(&in.Src, 8, next)
			if err != nil {
				return err
			}
			target = t
			if m.Prof != nil && in.NoTrack {
				m.Prof.NotrackBranches++
			}
			if m.EnforceCET && !in.NoTrack {
				m.expectEndbr = true
			}
		}
		m.Regs[x86.RSP] -= 8
		if err := m.Mem.WriteU64(m.Regs[x86.RSP], next, 8); err != nil {
			return err
		}
		if m.EnforceCET {
			m.shadow = append(m.shadow, next)
			if m.Prof != nil {
				m.Prof.ShadowPushes++
			}
		}
		m.RIP = target
		return nil

	case x86.RET:
		target, err := m.Mem.ReadU64(m.Regs[x86.RSP], 8)
		if err != nil {
			return err
		}
		m.Regs[x86.RSP] += 8
		if m.EnforceCET {
			if len(m.shadow) == 0 {
				return &CETViolation{RIP: m.RIP, Kind: "shadow stack underflow"}
			}
			want := m.shadow[len(m.shadow)-1]
			m.shadow = m.shadow[:len(m.shadow)-1]
			if m.Prof != nil {
				m.Prof.ShadowPops++
			}
			if want != target {
				return &CETViolation{RIP: m.RIP, Kind: "shadow stack mismatch"}
			}
		}
		m.RIP = target
		return nil

	case x86.SETCC:
		v := uint64(0)
		if in.Cond.Eval(m.Flags) {
			v = 1
		}
		if err := m.writeArg(&in.Dst, v, 1, next); err != nil {
			return err
		}
		m.RIP = next
		return nil

	case x86.CMOVCC:
		if in.Cond.Eval(m.Flags) {
			v, err := m.readArg(&in.Src, w, next)
			if err != nil {
				return err
			}
			m.setReg(in.Dst.Base, v, w)
		} else if w == 4 {
			// 32-bit cmov clears the upper half even when not taken.
			m.setReg(in.Dst.Base, m.getReg(in.Dst.Base, 4), 4)
		}
		m.RIP = next
		return nil
	}
	return fmt.Errorf("unimplemented op %v", in.Op)
}

func (m *Machine) execALU(in x86.Inst, w uint8, next uint64) error {
	a, err := m.readArg(&in.Dst, w, next)
	if err != nil {
		return err
	}
	b, err := m.readArg(&in.Src, w, next)
	if err != nil {
		return err
	}
	if r, wb := aluCompute(&m.Flags, in.Op, a, b, w); wb {
		if err := m.writeArg(&in.Dst, r, w, next); err != nil {
			return err
		}
	}
	m.RIP = next
	return nil
}

func (m *Machine) execIMul(in x86.Inst, w uint8, next uint64) error {
	a, err := m.readArg(&in.Dst, w, next)
	if err != nil {
		return err
	}
	b, err := m.readArg(&in.Src, w, next)
	if err != nil {
		return err
	}
	if in.HasImm3 {
		a, err = m.readArg(&in.Src, w, next)
		if err != nil {
			return err
		}
		b = truncate(uint64(in.Imm3), w)
	}
	sa := int64(signExtend(a, w))
	sb := int64(signExtend(b, w))
	hi, lo := bits.Mul64(uint64(sa), uint64(sb))
	// Signed 128-bit high part.
	if sa < 0 {
		hi -= uint64(sb)
	}
	if sb < 0 {
		hi -= uint64(sa)
	}
	r := truncate(lo, w)
	overflow := int64(signExtend(r, w)) != int64(lo) || int64(hi) != int64(lo)>>63
	m.Flags.CF = overflow
	m.Flags.OF = overflow
	setResultFlags(&m.Flags, r, w)
	if err := m.writeArg(&in.Dst, r, w, next); err != nil {
		return err
	}
	m.RIP = next
	return nil
}

func (m *Machine) execIDiv(in x86.Inst, w uint8, next uint64) error {
	div, err := m.readArg(&in.Dst, w, next)
	if err != nil {
		return err
	}
	q, r, err := idivCompute(m.Regs[x86.RAX], m.Regs[x86.RDX], div, w)
	if err != nil {
		return err
	}
	m.setReg(x86.RAX, q, w)
	m.setReg(x86.RDX, r, w)
	m.RIP = next
	return nil
}

func (m *Machine) execShift(in x86.Inst, w uint8, next uint64) error {
	a, err := m.readArg(&in.Dst, w, next)
	if err != nil {
		return err
	}
	var count uint64
	switch in.Src.Kind {
	case x86.ArgImm:
		count = uint64(in.Src.Val)
	case x86.ArgReg:
		count = m.getReg(x86.RCX, 1)
	default:
		return errors.New("bad shift count operand")
	}
	if r, wb := shiftCompute(&m.Flags, in.Op, a, count, w); wb {
		if err := m.writeArg(&in.Dst, r, w, next); err != nil {
			return err
		}
	}
	m.RIP = next
	return nil
}
