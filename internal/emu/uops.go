package emu

import (
	"encoding/binary"

	"repro/internal/x86"
)

// This file binds decoded instructions to micro-op closures. Binding
// resolves at translation time everything the interpreter resolves at
// execution time — operand kinds, widths, effective-address shapes,
// immediates, branch targets — leaving only the data-dependent work in
// the closure. The closures share the interpreter's value functions
// (exec.go: flags, ALU, shift, divide), and their fault ordering,
// error values, partial-register merge rules and the RIP the machine
// holds after each outcome must all be bit-identical to exec, because
// the parity tests compare the two engines on full corpus runs.
// Anything not worth a closure of its own runs through exec itself, so
// it cannot diverge by construction.

// --- data TLB ---

// load reads width w at addr through the direct-mapped read TLB. A
// cross-page access or a miss that PageData cannot serve falls back to
// Memory.ReadU64, which produces the canonical Fault.
func (e *engine) load(addr uint64, w uint8) (uint64, error) {
	off := addr & (PageSize - 1)
	if off+uint64(w) <= PageSize {
		pg := addr &^ (PageSize - 1)
		t := &e.rtlb[(addr>>12)&(tlbWays-1)]
		if t.page != pg {
			d := e.m.Mem.PageData(addr, PermR)
			if d == nil {
				return e.m.Mem.ReadU64(addr, int(w))
			}
			t.page, t.data = pg, d
		}
		switch w {
		case 8:
			return binary.LittleEndian.Uint64(t.data[off:]), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(t.data[off:])), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(t.data[off:])), nil
		default:
			return uint64(t.data[off]), nil
		}
	}
	return e.m.Mem.ReadU64(addr, int(w))
}

// store writes width w at addr through the direct-mapped write TLB,
// falling back to Memory.WriteU64 for cross-page accesses and misses
// (canonical Fault, and the interpreter's partial-write behavior on a
// page-straddling fault).
func (e *engine) store(addr uint64, v uint64, w uint8) error {
	off := addr & (PageSize - 1)
	if off+uint64(w) <= PageSize {
		pg := addr &^ (PageSize - 1)
		t := &e.wtlb[(addr>>12)&(tlbWays-1)]
		if t.page != pg {
			d := e.m.Mem.PageData(addr, PermW)
			if d == nil {
				return e.m.Mem.WriteU64(addr, v, int(w))
			}
			t.page, t.data = pg, d
		}
		switch w {
		case 8:
			binary.LittleEndian.PutUint64(t.data[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(t.data[off:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(t.data[off:], uint16(v))
		default:
			t.data[off] = byte(v)
		}
		return nil
	}
	return e.m.Mem.WriteU64(addr, v, int(w))
}

// --- operand binding ---

// addrFn computes a memory operand's effective address. RIP-relative
// operands resolve to a constant at bind time (the instruction's
// address is fixed), so only register-dependent shapes compute at all.
type addrFn func(e *engine) uint64

func bindAddr(mem x86.Mem, next uint64) addrFn {
	if mem.Rip {
		abs := next + uint64(int64(mem.Disp))
		return func(*engine) uint64 { return abs }
	}
	disp := uint64(int64(mem.Disp))
	base, idx, scale := mem.Base, mem.Index, uint64(mem.Scale)
	switch {
	case base.Valid() && idx.Valid():
		return func(e *engine) uint64 { return e.m.Regs[base] + e.m.Regs[idx]*scale + disp }
	case base.Valid():
		return func(e *engine) uint64 { return e.m.Regs[base] + disp }
	case idx.Valid():
		return func(e *engine) uint64 { return e.m.Regs[idx]*scale + disp }
	default:
		return func(*engine) uint64 { return disp }
	}
}

// valFn evaluates an operand at its bound width (zero-extended raw
// bits), exactly like the interpreter's readArg.
type valFn func(e *engine) (uint64, error)

func bindLoad(a x86.Arg, w uint8, next uint64) valFn {
	switch w {
	case 1, 2, 4, 8:
	default:
		return nil
	}
	switch a.Kind {
	case x86.ArgReg:
		r := a.Base
		if w == 8 {
			return func(e *engine) (uint64, error) { return e.m.Regs[r], nil }
		}
		return func(e *engine) (uint64, error) { return truncate(e.m.Regs[r], w), nil }
	case x86.ArgImm:
		c := truncate(uint64(a.Val), w)
		return func(*engine) (uint64, error) { return c, nil }
	case x86.ArgMem:
		v, _ := a.AsMem()
		af := bindAddr(v, next)
		return func(e *engine) (uint64, error) { return e.load(af(e), w) }
	}
	return nil
}

// storeFn writes an operand at its bound width (the interpreter's
// writeArg).
type storeFn func(e *engine, v uint64) error

func bindStore(a x86.Arg, w uint8, next uint64) storeFn {
	switch w {
	case 1, 2, 4, 8:
	default:
		return nil
	}
	switch a.Kind {
	case x86.ArgReg:
		r := a.Base
		switch w {
		case 8:
			return func(e *engine, v uint64) error { e.m.Regs[r] = v; return nil }
		case 4:
			return func(e *engine, v uint64) error { e.m.Regs[r] = v & 0xFFFFFFFF; return nil }
		case 2:
			return func(e *engine, v uint64) error {
				e.m.Regs[r] = e.m.Regs[r]&^0xFFFF | v&0xFFFF
				return nil
			}
		default:
			return func(e *engine, v uint64) error {
				e.m.Regs[r] = e.m.Regs[r]&^0xFF | v&0xFF
				return nil
			}
		}
	case x86.ArgMem:
		d, _ := a.AsMem()
		af := bindAddr(d, next)
		return func(e *engine, v uint64) error { return e.store(af(e), v, w) }
	}
	return nil
}

func memHasFS(a x86.Arg) bool {
	m, ok := a.AsMem()
	return ok && m.FS
}

// bindGeneric runs the instruction through the interpreter's own
// execute stage. RIP must be current for it (RIP-relative addressing,
// the error-state contract), so the closure sets it first; on success
// exec leaves RIP at the next instruction, which the dispatch loop's
// fall-through exit agrees with.
func bindGeneric(in x86.Inst, addr uint64, size int) uop {
	return func(e *engine) int {
		m := e.m
		m.RIP = addr
		if err := m.exec(in, size); err != nil {
			e.err = err
			return uErr
		}
		return uNext
	}
}

// bindOp binds one instruction; a nil uop declines (the block ends
// before it and the interpreter takes over there). term marks ops
// that always end the superblock.
//
// Closures own RIP on their non-uNext outcomes: the faulting
// instruction's address on uErr (the interpreter returns errors with
// RIP still at the instruction), the transfer target on uEnd, the
// next instruction after an exit syscall on uExit. On uNext nothing
// touches RIP — the dispatch loop writes it only at block exits.
func bindOp(in x86.Inst, addr uint64, size int) (u uop, term bool) {
	next := addr + uint64(size)
	w := opWidth(in.W)

	// FS-override operands (TLS access) resolve against the machine's
	// FS base; the specialized address closures below don't model
	// segmentation, so route them through the interpreter's own execute
	// stage — parity by construction.
	if memHasFS(in.Dst) || memHasFS(in.Src) {
		return bindGeneric(in, addr, size), false
	}

	switch in.Op {
	case x86.NOP, x86.ENDBR64:
		return func(*engine) int { return uNext }, false

	case x86.HLT, x86.UD2, x86.INT3:
		// Always-fault ops: the generic path produces the exact error.
		return bindGeneric(in, addr, size), true

	case x86.SYSCALL:
		return func(e *engine) int {
			m := e.m
			// The interpreter sets RIP before dispatching the syscall:
			// the kernel-entry contract (RCX := RIP) and the exit
			// state depend on it.
			m.RIP = next
			if err := m.syscall(); err != nil {
				e.err = err
				return uErr
			}
			if m.exited {
				return uExit
			}
			return uNext
		}, false

	case x86.MOV:
		return bindMov(in, addr, w, next), false

	case x86.MOVZX:
		ld := bindLoad(in.Src, in.SrcW, next)
		st := bindStore(in.Dst, w, next)
		if ld == nil || st == nil {
			return nil, false
		}
		return func(e *engine) int {
			v, err := ld(e)
			if err == nil {
				err = st(e, v)
			}
			if err != nil {
				return e.fail(addr, err)
			}
			return uNext
		}, false

	case x86.MOVSX, x86.MOVSXD:
		ld := bindLoad(in.Src, in.SrcW, next)
		st := bindStore(in.Dst, w, next)
		if ld == nil || st == nil {
			return nil, false
		}
		sw := in.SrcW
		return func(e *engine) int {
			v, err := ld(e)
			if err == nil {
				err = st(e, truncate(signExtend(v, sw), w))
			}
			if err != nil {
				return e.fail(addr, err)
			}
			return uNext
		}, false

	case x86.LEA:
		mem, ok := in.Src.AsMem()
		if !ok {
			return nil, false
		}
		dr, ok := in.Dst.AsReg()
		if !ok {
			return nil, false
		}
		af := bindAddr(mem, next)
		if w == 8 {
			return func(e *engine) int { e.m.Regs[dr] = af(e); return uNext }, false
		}
		return func(e *engine) int { e.m.setReg(dr, af(e), w); return uNext }, false

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		return bindALU(in, addr, w, next), false

	case x86.CQO:
		if w == 8 {
			return func(e *engine) int {
				m := e.m
				m.Regs[x86.RDX] = uint64(int64(m.Regs[x86.RAX]) >> 63)
				return uNext
			}, false
		}
		return func(e *engine) int {
			m := e.m
			m.setReg(x86.RDX, uint64(int64(int32(m.Regs[x86.RAX])>>31)), 4)
			return uNext
		}, false

	case x86.IDIV:
		return bindIDiv(in, addr, w, next), false

	case x86.SHL, x86.SHR, x86.SAR:
		return bindShift(in, addr, w, next), false

	case x86.PUSH:
		// The common push reg/imm reads cannot fault; memory-source
		// pushes go through the bound loader. RSP stays decremented on
		// a store fault, as in the interpreter.
		ld := bindLoad(in.Src, 8, next)
		if ld == nil {
			return nil, false
		}
		if r, ok := in.Src.AsReg(); ok {
			return func(e *engine) int {
				m := e.m
				v := m.Regs[r] // read before the RSP update: push rsp stores the old value
				m.Regs[x86.RSP] -= 8
				if err := e.store(m.Regs[x86.RSP], v, 8); err != nil {
					return e.fail(addr, err)
				}
				return uNext
			}, false
		}
		return func(e *engine) int {
			m := e.m
			v, err := ld(e)
			if err != nil {
				return e.fail(addr, err)
			}
			m.Regs[x86.RSP] -= 8
			if err := e.store(m.Regs[x86.RSP], v, 8); err != nil {
				return e.fail(addr, err)
			}
			return uNext
		}, false

	case x86.POP:
		dr, ok := in.Dst.AsReg()
		if !ok {
			return nil, false
		}
		return func(e *engine) int {
			m := e.m
			v, err := e.load(m.Regs[x86.RSP], 8)
			if err != nil {
				return e.fail(addr, err)
			}
			m.Regs[x86.RSP] += 8
			m.Regs[dr] = v
			return uNext
		}, false

	case x86.JMP:
		if rel, ok := in.Src.AsRel(); ok {
			target := next + uint64(int64(rel))
			return func(e *engine) int { e.m.RIP = target; return uEnd }, true
		}
		ld := bindLoad(in.Src, 8, next)
		if ld == nil {
			return nil, false
		}
		noTrack := in.NoTrack
		return func(e *engine) int {
			m := e.m
			t, err := ld(e)
			if err != nil {
				return e.fail(addr, err)
			}
			if m.Prof != nil && noTrack {
				m.Prof.NotrackBranches++
			}
			if m.EnforceCET && !noTrack {
				m.expectEndbr = true
			}
			m.RIP = t
			return uEnd
		}, true

	case x86.JCC:
		rel, ok := in.Src.AsRel()
		if !ok {
			return nil, false
		}
		target := next + uint64(int64(rel))
		cond := in.Cond
		return func(e *engine) int {
			if cond.Eval(e.m.Flags) {
				e.m.RIP = target
				return uEnd
			}
			return uNext
		}, false

	case x86.CALL:
		return bindCall(in, addr, next)

	case x86.RET:
		return func(e *engine) int {
			m := e.m
			target, err := e.load(m.Regs[x86.RSP], 8)
			if err != nil {
				return e.fail(addr, err)
			}
			m.Regs[x86.RSP] += 8
			if m.EnforceCET {
				if len(m.shadow) == 0 {
					return e.fail(addr, &CETViolation{RIP: addr, Kind: "shadow stack underflow"})
				}
				want := m.shadow[len(m.shadow)-1]
				m.shadow = m.shadow[:len(m.shadow)-1]
				if m.Prof != nil {
					m.Prof.ShadowPops++
				}
				if want != target {
					return e.fail(addr, &CETViolation{RIP: addr, Kind: "shadow stack mismatch"})
				}
			}
			m.RIP = target
			return uEnd
		}, true

	case x86.SETCC:
		st := bindStore(in.Dst, 1, next)
		if st == nil {
			return nil, false
		}
		cond := in.Cond
		return func(e *engine) int {
			v := uint64(0)
			if cond.Eval(e.m.Flags) {
				v = 1
			}
			if err := st(e, v); err != nil {
				return e.fail(addr, err)
			}
			return uNext
		}, false

	case x86.CMOVCC:
		dr, ok := in.Dst.AsReg()
		if !ok {
			return nil, false
		}
		ld := bindLoad(in.Src, w, next)
		if ld == nil {
			return nil, false
		}
		cond := in.Cond
		return func(e *engine) int {
			m := e.m
			if cond.Eval(m.Flags) {
				v, err := ld(e)
				if err != nil {
					return e.fail(addr, err)
				}
				m.setReg(dr, v, w)
			} else if w == 4 {
				// 32-bit cmov clears the upper half even when not taken.
				m.Regs[dr] &= 0xFFFFFFFF
			}
			return uNext
		}, false
	}

	// IMUL, NEG, NOT, and anything the decoder grows later: the
	// interpreter's execute stage, pre-decoded.
	return bindGeneric(in, addr, size), false
}

// fail records the raw error and puts RIP back at the faulting
// instruction, matching the machine state the interpreter leaves
// behind when exec returns an error.
func (e *engine) fail(addr uint64, err error) int {
	e.m.RIP = addr
	e.err = err
	return uErr
}

// bindMov fuses the mov shapes the corpus actually executes —
// register/immediate/memory sources and register/memory destinations —
// into single closures; partial-width register writes fall back to the
// composed loader/storer pair.
func bindMov(in x86.Inst, addr uint64, w uint8, next uint64) uop {
	if dr, ok := in.Dst.AsReg(); ok && (w == 8 || w == 4) {
		switch in.Src.Kind {
		case x86.ArgReg:
			s, _ := in.Src.AsReg()
			if w == 8 {
				return func(e *engine) int { e.m.Regs[dr] = e.m.Regs[s]; return uNext }
			}
			return func(e *engine) int { e.m.Regs[dr] = e.m.Regs[s] & 0xFFFFFFFF; return uNext }
		case x86.ArgImm:
			s, _ := in.Src.AsImm()
			c := truncate(uint64(int64(s)), w) // w==4 already masks
			return func(e *engine) int { e.m.Regs[dr] = c; return uNext }
		case x86.ArgMem:
			s, _ := in.Src.AsMem()
			af := bindAddr(s, next)
			if w == 8 {
				return func(e *engine) int {
					v, err := e.load(af(e), 8)
					if err != nil {
						return e.fail(addr, err)
					}
					e.m.Regs[dr] = v
					return uNext
				}
			}
			return func(e *engine) int {
				v, err := e.load(af(e), 4)
				if err != nil {
					return e.fail(addr, err)
				}
				e.m.Regs[dr] = v // load already zero-extends
				return uNext
			}
		}
	}
	if dm, ok := in.Dst.AsMem(); ok {
		af := bindAddr(dm, next)
		switch in.Src.Kind {
		case x86.ArgReg:
			s, _ := in.Src.AsReg()
			return func(e *engine) int {
				if err := e.store(af(e), truncate(e.m.Regs[s], w), w); err != nil {
					return e.fail(addr, err)
				}
				return uNext
			}
		case x86.ArgImm:
			s, _ := in.Src.AsImm()
			c := truncate(uint64(int64(s)), w)
			return func(e *engine) int {
				if err := e.store(af(e), c, w); err != nil {
					return e.fail(addr, err)
				}
				return uNext
			}
		}
	}
	// Partial-width register destinations (merge semantics) and any
	// remaining shape: composed from the generic operand handlers.
	ld := bindLoad(in.Src, w, next)
	st := bindStore(in.Dst, w, next)
	if ld == nil || st == nil {
		return nil
	}
	return func(e *engine) int {
		v, err := ld(e)
		if err == nil {
			err = st(e, v)
		}
		if err != nil {
			return e.fail(addr, err)
		}
		return uNext
	}
}

func bindALU(in x86.Inst, addr uint64, w uint8, next uint64) uop {
	op := in.Op
	// Fused: register destination with register/immediate source — the
	// dominant ALU shape — needs no fault paths at all.
	if dr, ok := in.Dst.AsReg(); ok && (w == 8 || w == 4) {
		switch in.Src.Kind {
		case x86.ArgReg:
			s, _ := in.Src.AsReg()
			return func(e *engine) int {
				m := e.m
				a := truncate(m.Regs[dr], w)
				b := truncate(m.Regs[s], w)
				r, wb := aluCompute(&m.Flags, op, a, b, w)
				if wb {
					if w == 8 {
						m.Regs[dr] = r
					} else {
						m.Regs[dr] = r & 0xFFFFFFFF
					}
				}
				return uNext
			}
		case x86.ArgImm:
			s, _ := in.Src.AsImm()
			c := truncate(uint64(int64(s)), w)
			return func(e *engine) int {
				m := e.m
				a := truncate(m.Regs[dr], w)
				r, wb := aluCompute(&m.Flags, op, a, c, w)
				if wb {
					if w == 8 {
						m.Regs[dr] = r
					} else {
						m.Regs[dr] = r & 0xFFFFFFFF
					}
				}
				return uNext
			}
		}
	}
	lda := bindLoad(in.Dst, w, next)
	ldb := bindLoad(in.Src, w, next)
	if lda == nil || ldb == nil {
		return nil
	}
	var st storeFn
	if op != x86.CMP && op != x86.TEST {
		if st = bindStore(in.Dst, w, next); st == nil {
			return nil
		}
	}
	return func(e *engine) int {
		a, err := lda(e)
		if err != nil {
			return e.fail(addr, err)
		}
		b, err := ldb(e)
		if err != nil {
			return e.fail(addr, err)
		}
		r, wb := aluCompute(&e.m.Flags, op, a, b, w)
		if wb {
			if err := st(e, r); err != nil {
				return e.fail(addr, err)
			}
		}
		return uNext
	}
}

func bindIDiv(in x86.Inst, addr uint64, w uint8, next uint64) uop {
	ld := bindLoad(in.Dst, w, next)
	if ld == nil {
		return nil
	}
	return func(e *engine) int {
		m := e.m
		div, err := ld(e)
		if err != nil {
			return e.fail(addr, err)
		}
		q, r, err := idivCompute(m.Regs[x86.RAX], m.Regs[x86.RDX], div, w)
		if err != nil {
			return e.fail(addr, err)
		}
		m.setReg(x86.RAX, q, w)
		m.setReg(x86.RDX, r, w)
		return uNext
	}
}

func bindShift(in x86.Inst, addr uint64, w uint8, next uint64) uop {
	lda := bindLoad(in.Dst, w, next)
	st := bindStore(in.Dst, w, next)
	if lda == nil || st == nil {
		return nil
	}
	var countImm uint64
	var fromCL bool
	switch in.Src.Kind {
	case x86.ArgImm:
		s, _ := in.Src.AsImm()
		countImm = uint64(s)
	case x86.ArgReg:
		fromCL = true // the interpreter reads CL for any register count
	default:
		return nil
	}
	op := in.Op
	return func(e *engine) int {
		m := e.m
		a, err := lda(e)
		if err != nil {
			return e.fail(addr, err)
		}
		count := countImm
		if fromCL {
			count = m.Regs[x86.RCX] & 0xFF
		}
		if r, wb := shiftCompute(&m.Flags, op, a, count, w); wb {
			if err := st(e, r); err != nil {
				return e.fail(addr, err)
			}
		}
		return uNext
	}
}

func bindCall(in x86.Inst, addr uint64, next uint64) (uop, bool) {
	if rel, ok := in.Src.AsRel(); ok {
		target := next + uint64(int64(rel))
		return func(e *engine) int {
			m := e.m
			m.Regs[x86.RSP] -= 8
			if err := e.store(m.Regs[x86.RSP], next, 8); err != nil {
				return e.fail(addr, err)
			}
			if m.EnforceCET {
				m.shadow = append(m.shadow, next)
				if m.Prof != nil {
					m.Prof.ShadowPushes++
				}
			}
			m.RIP = target
			return uEnd
		}, true
	}
	ld := bindLoad(in.Src, 8, next)
	if ld == nil {
		return nil, false
	}
	noTrack := in.NoTrack
	return func(e *engine) int {
		m := e.m
		t, err := ld(e)
		if err != nil {
			return e.fail(addr, err)
		}
		// Interpreter order: the endbr expectation arms before the
		// return-address push, so a push fault leaves it armed.
		if m.Prof != nil && noTrack {
			m.Prof.NotrackBranches++
		}
		if m.EnforceCET && !noTrack {
			m.expectEndbr = true
		}
		m.Regs[x86.RSP] -= 8
		if err := e.store(m.Regs[x86.RSP], next, 8); err != nil {
			return e.fail(addr, err)
		}
		if m.EnforceCET {
			m.shadow = append(m.shadow, next)
			if m.Prof != nil {
				m.Prof.ShadowPushes++
			}
		}
		m.RIP = t
		return uEnd
	}, true
}
