package cc

import (
	"repro/internal/mini"
	"repro/internal/x86"
)

// ShadowBase is the address of the sanitizer shadow map: the shadow byte
// for application address A lives at ShadowBase + A>>3 (one byte per
// 8-byte granule, like AddressSanitizer). The emulator maps shadow pages
// zero-filled on demand, so unpoisoned memory is accessible by default.
const ShadowBase = 0x7000_0000

// asanRedzone is the poisoned guard size placed on each side of every
// array (stack and global) in source-ASan builds.
const asanRedzone = 32

// asanCheckIndexed emits a shadow check for the access [base + idx*elem]
// when the build sanitizes. Clobbers R10/R11 and flags; both are dead at
// every call site (checks are emitted immediately before the access).
func (g *gen) asanCheckIndexed(base, idx x86.Reg, elem int) {
	if !g.cfg.ASan {
		return
	}
	ok := g.label("Lasan_ok")
	g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R10.Arg(),
		Src: x86.Mem{Base: base, Index: idx, Scale: uint8(elem)}.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R11.Arg(), Src: x86.R10.Arg()})
	g.t(x86.Inst{Op: x86.SHR, W: 8, Dst: x86.R11.Arg(), Src: x86.Imm(3).Arg()})
	g.t(x86.Inst{Op: x86.CMP, W: 1,
		Dst: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: ShadowBase}.Arg(), Src: x86.Imm(0).Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, ok, 0)
	g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_report", 0)
	g.text.L(ok)
}

// asanPoisonFrame poisons the redzones around every stack array of f.
// Runs after parameter spilling, so argument registers are dead.
func (g *gen) asanPoisonFrame(f *mini.Func) {
	for _, a := range f.Arrays {
		info := g.arrInfo[a.Name]
		size := (int64(a.Elem)*int64(a.Count) + 7) &^ 7
		// Low redzone: [array_base - rz, array_base).
		g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RDI.Arg(),
			Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(-(info.off + asanRedzone))}.Arg()})
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(asanRedzone).Arg()})
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(0xFF).Arg()})
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_set", 0)
		// High redzone: [array_base + size, array_base + size + rz).
		g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RDI.Arg(),
			Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(size - info.off)}.Arg()})
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(asanRedzone).Arg()})
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(0xFF).Arg()})
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_set", 0)
	}
}

// asanUnpoisonFrame clears the frame's redzones before returning, so the
// stack space can be reused cleanly. RAX (the return value) is preserved.
func (g *gen) asanUnpoisonFrame(f *mini.Func) {
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
	for _, a := range f.Arrays {
		info := g.arrInfo[a.Name]
		size := (int64(a.Elem)*int64(a.Count) + 7) &^ 7
		g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RDI.Arg(),
			Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(-(info.off + asanRedzone))}.Arg()})
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(size + 2*asanRedzone).Arg()})
		g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RDX.Arg(), Src: x86.RDX.Arg()})
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_set", 0)
	}
	g.t(x86.Inst{Op: x86.POP, Dst: x86.RAX.Arg()})
}

// emitASanRuntime emits asan_set (shadow painter), asan_report (fatal
// diagnostic), and asan_init (global redzone poisoning from the global
// table emitted by globals()).
func (g *gen) emitASanRuntime() {
	// asan_set(RDI=addr, RSI=len, RDX=value): paint shadow bytes for the
	// 8-aligned range [addr, addr+len).
	loop := ".Lset_loop"
	done := ".Lset_done"
	g.beginFunc("asan_set")
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDI.Arg()})
	g.t(x86.Inst{Op: x86.SHR, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(3).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.RDI.Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RCX.Arg(), Src: x86.RSI.Arg()})
	g.t(x86.Inst{Op: x86.SHR, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(3).Arg()})
	g.text.L(loop)
	g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.RCX.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondAE, Src: x86.Rel(0).Arg()}, done, 0)
	g.t(x86.Inst{Op: x86.MOV, W: 1,
		Dst: x86.Mem{Base: x86.RAX, Index: x86.NoReg, Disp: ShadowBase}.Arg(), Src: x86.RDX.Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(1).Arg()})
	g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, loop, 0)
	g.text.L(done)
	g.t(x86.Inst{Op: x86.RET})
	g.endFunc("asan_set")

	// asan_report: print a diagnostic to stderr and exit(134), matching
	// AddressSanitizer's SIGABRT-style exit.
	g.rodata.L(".Lasan_msg")
	g.rodata.Raw([]byte("=ASAN=\n"))
	g.beginFunc("asan_report")
	g.ripLea(x86.RSI, ".Lasan_msg", 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(7).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(2).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(SysWrite).Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(134).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(SysExit).Arg()})
	g.t(x86.Inst{Op: x86.SYSCALL})
	g.t(x86.Inst{Op: x86.HLT})
	g.endFunc("asan_report")

	// asan_init: walk the global table (count, then addr/size pairs) and
	// poison the redzone on each side of every instrumented global.
	iloop := ".Linit_loop"
	idone := ".Linit_done"
	g.beginFunc("asan_init")
	g.ripLea(x86.R8, ".Lasan_gtab", 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R9.Arg(),
		Src: x86.Mem{Base: x86.R8, Index: x86.NoReg}.Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.R8.Arg(), Src: x86.Imm(8).Arg()})
	g.text.L(iloop)
	g.t(x86.Inst{Op: x86.TEST, W: 8, Dst: x86.R9.Arg(), Src: x86.R9.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, idone, 0)
	// Low redzone.
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.R8.Arg()})
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.R9.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Mem{Base: x86.R8, Index: x86.NoReg}.Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(asanRedzone).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(asanRedzone).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(0xFF).Arg()})
	g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_set", 0)
	g.t(x86.Inst{Op: x86.POP, Dst: x86.R9.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.R8.Arg()})
	// High redzone.
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.R8.Arg()})
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.R9.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Mem{Base: x86.R8, Index: x86.NoReg}.Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RDI.Arg(), Src: x86.Mem{Base: x86.R8, Index: x86.NoReg, Disp: 8}.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(asanRedzone).Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(0xFF).Arg()})
	g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "asan_set", 0)
	g.t(x86.Inst{Op: x86.POP, Dst: x86.R9.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.R8.Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.R8.Arg(), Src: x86.Imm(16).Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.R9.Arg(), Src: x86.Imm(1).Arg()})
	g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, iloop, 0)
	g.text.L(idone)
	g.t(x86.Inst{Op: x86.RET})
	g.endFunc("asan_init")
}

// asanGlobalTable emits the table of sanitized globals into .data.rel.ro
// (entries hold absolute addresses, hence relocations).
func (g *gen) asanGlobalTable(entries []asanGlobalEntry) {
	g.relro.Align2(8)
	g.relro.L(".Lasan_gtab")
	g.relro.D8(uint64(len(entries)))
	for _, e := range entries {
		g.relro.Q(e.name, 0)
		g.relro.D8(uint64(e.size))
	}
}

type asanGlobalEntry struct {
	name string
	size int64
}
