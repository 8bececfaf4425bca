package cc

import (
	"repro/internal/x86"
)

// Syscall numbers implemented by the emulator (Linux x86-64 numbering).
const (
	SysRead  = 0
	SysWrite = 1
	SysExit  = 60
)

// emitRuntime emits the minimal freestanding runtime every binary carries
// (the static-libc stand-in): _start, decimal printing, character output,
// and 8-byte input reads. All runtime routines are ordinary functions
// with CET markers and frame setup, indistinguishable from user code at
// the byte level — exactly what a reassembler faces.
func (g *gen) emitRuntime() {
	g.emitStart()
	g.emitPrintI64()
	g.emitPrintChar()
	g.emitReadI64()
	if g.usesEH {
		g.emitThrow()
	}
	if g.cfg.ASan {
		g.emitASanRuntime()
	}
}

func (g *gen) beginFunc(name string) {
	g.text.Align2(g.cfg.funcAlign())
	g.text.L(name)
	g.funcRanges = append(g.funcRanges, name)
	if g.cfg.CET {
		g.t(x86.Inst{Op: x86.ENDBR64})
	}
}

func (g *gen) endFunc(name string) {
	g.text.L(name + "$end")
}

func (g *gen) emitStart() {
	g.beginFunc("_start")
	// Align the stack and clear the frame pointer like crt0.
	g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RBP.Arg(), Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.AND, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(-16).Arg()})
	if g.cfg.ASan {
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_init", 0)
	}
	g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "main", 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(SysExit).Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.HLT}) // unreachable
	g.endFunc("_start")
}

// emitPrintI64 prints RDI as signed decimal plus newline via write(2).
func (g *gen) emitPrintI64() {
	pos := ".Lpi64_pos"
	loop := ".Lpi64_loop"
	nosign := ".Lpi64_nosign"

	g.beginFunc("print_i64")
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBP.Arg(), Src: x86.RSP.Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(64).Arg()})

	// RSI points one past the last byte written; start with '\n'.
	g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RSI.Arg(),
		Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -8}.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 1, Dst: x86.Mem{Base: x86.RSI, Index: x86.NoReg}.Arg(), Src: x86.Imm('\n').Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDI.Arg()})
	g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.R9.Arg(), Src: x86.R9.Arg()})
	g.t(x86.Inst{Op: x86.TEST, W: 8, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondNS, Src: x86.Rel(0).Arg()}, pos, 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R9.Arg(), Src: x86.Imm(1).Arg()})
	g.t(x86.Inst{Op: x86.NEG, W: 8, Dst: x86.RAX.Arg()})
	g.text.L(pos)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(10).Arg()})
	g.text.L(loop)
	g.t(x86.Inst{Op: x86.CQO, W: 8})
	g.t(x86.Inst{Op: x86.IDIV, W: 8, Dst: x86.RCX.Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm('0').Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(1).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 1, Dst: x86.Mem{Base: x86.RSI, Index: x86.NoReg}.Arg(), Src: x86.RDX.Arg()})
	g.t(x86.Inst{Op: x86.TEST, W: 8, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()}, loop, 0)
	g.t(x86.Inst{Op: x86.TEST, W: 8, Dst: x86.R9.Arg(), Src: x86.R9.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, nosign, 0)
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(1).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 1, Dst: x86.Mem{Base: x86.RSI, Index: x86.NoReg}.Arg(), Src: x86.Imm('-').Arg()})
	g.text.L(nosign)
	// write(1, RSI, (RBP-7) - RSI)
	g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RDX.Arg(),
		Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -7}.Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RDX.Arg(), Src: x86.RSI.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(1).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(SysWrite).Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSP.Arg(), Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.RET})
	g.endFunc("print_i64")
}

func (g *gen) emitPrintChar() {
	g.beginFunc("print_char")
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBP.Arg(), Src: x86.RSP.Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(16).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 1,
		Dst: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -1}.Arg(), Src: x86.RDI.Arg()})
	g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RSI.Arg(),
		Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -1}.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(1).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(1).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(SysWrite).Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSP.Arg(), Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.RET})
	g.endFunc("print_char")
}

// emitReadI64 reads 8 little-endian bytes from stdin into RAX; a short
// read returns 0 (the input stream is a multiple of 8 bytes by
// construction, so short means exhausted).
func (g *gen) emitReadI64() {
	zero := ".Lri64_zero"
	done := ".Lri64_done"

	g.beginFunc("read_i64")
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBP.Arg(), Src: x86.RSP.Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(16).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8,
		Dst: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -8}.Arg(), Src: x86.Imm(0).Arg()})
	g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RSI.Arg(),
		Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -8}.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(8).Arg()})
	g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RDI.Arg(), Src: x86.RDI.Arg()})
	g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(8).Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()}, zero, 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: -8}.Arg()})
	g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, done, 0)
	g.text.L(zero)
	g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.text.L(done)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSP.Arg(), Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.RET})
	g.endFunc("read_i64")
}

// emitThrow emits the exception-dispatch routine. It is entered by a
// direct jmp (never a call — the transfer must not grow the CET shadow
// stack): RDI carries the thrown value. With no try armed the process
// exits with the C++ std::terminate status (134 = 128+SIGABRT).
// Otherwise it restores the armed RSP/RBP snapshot, loads the landing
// pad from the armed LSDA record's first quad — a loader-relocated cell,
// so a rewritten binary dispatches to the *moved* pad — and jumps there.
func (g *gen) emitThrow() {
	dead := ".Lthrow_dead"
	g.beginFunc("__throw")
	g.ts(x86.Inst{Op: x86.MOV, W: 8,
		Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(), Src: x86.RDI.Arg()}, "__exc_val", 0)
	g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, "__exc_lsda", 0)
	g.t(x86.Inst{Op: x86.TEST, W: 8, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, dead, 0)
	g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSP.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, "__exc_rsp", 0)
	g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBP.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, "__exc_rbp", 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.RAX, Index: x86.NoReg}.Arg()})
	g.t(x86.Inst{Op: x86.JMP, Src: x86.RAX.Arg()})
	g.text.L(dead)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(134).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(SysExit).Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.HLT}) // unreachable
	g.endFunc("__throw")
}

// RuntimeFuncNames lists the reserved runtime symbols; workload
// generators must not reuse them for user functions.
func RuntimeFuncNames(asan bool) []string {
	names := []string{"_start", "print_i64", "print_char", "read_i64", "__throw"}
	if asan {
		names = append(names, "asan_set", "asan_report", "asan_init")
	}
	return names
}
