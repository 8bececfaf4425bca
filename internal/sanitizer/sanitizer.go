// Package sanitizer implements the paper's application study (§4.4): a
// binary-only address sanitizer built on SURI's instrumentation API,
// compared against a BASan-like tool (RetroWrite's sanitizer, including
// its documented stack-corrupting bug) and source-level ASan (the
// compiler's -fsanitize mode).
//
// The binary-only sanitizers instrument every indexed memory access with
// a shadow check and poison the frame boundary (saved RBP + return
// address) for the function's lifetime. They cannot see individual array
// bounds or global variables (§4.4: "our sanitizer does not sanitize
// global variables"), so intra-frame overflows and global overflows are
// inherent false negatives — exactly the paper's Table 5 structure.
//
// Since the instr framework landed the sanitizer is just another
// instr.Pass: the Prologue/Epilogue/MemAccess sites, the label movement
// onto inserted code, and the synthesized-entry bookkeeping all come
// from the framework; this package only supplies the shadow-poisoning
// sequences. It needs no payload region — the shadow map lives at the
// fixed ShadowBase the emulator maps read-write on demand.
package sanitizer

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// ShadowBase mirrors the compiler's sanitizer shadow map location.
const ShadowBase = 0x7000_0000

// Tool selects the sanitizer flavour.
type Tool int

// Sanitizer flavours.
const (
	// Ours is the SURI-based binary-only sanitizer.
	Ours Tool = iota
	// BASan is the RetroWrite-like baseline, which additionally poisons
	// the red zone below RSP at function entry and never unpoisons it —
	// its documented stack-corruption bug, the source of Table 5's false
	// positives.
	BASan
)

// Pass is the sanitizer as an instrumentation pass.
type Pass struct {
	Tool Tool
}

// NewPass returns the sanitizer flavour as an instr.Pass.
func NewPass(tool Tool) instr.Pass { return Pass{Tool: tool} }

// Name implements instr.Pass.
func (p Pass) Name() string {
	if p.Tool == BASan {
		return "basan"
	}
	return "sanitizer"
}

// Fingerprint implements instr.Fingerprinter.
func (p Pass) Fingerprint() string { return p.Name() + "/v1" }

// Setup implements instr.Pass. The shadow map is the fixed auto-RW
// region at ShadowBase, so no payload is claimed.
func (Pass) Setup(*instr.Context) error { return nil }

// Visit implements instr.Pass.
func (p Pass) Visit(ctx *instr.Context, s instr.Site) (before, after []serialize.Entry) {
	// Frame-boundary poisoning after each prologue:
	//   endbr64; push rbp; mov rbp, rsp; sub rsp, N
	if s.Points&instr.Prologue != 0 {
		after = poisonFrame(0xFF)
		// Both tools also guard the 16 bytes below the stack pointer
		// against underflows. Ours unpoisons it at the epilogue; BASan
		// never does — its documented stack-corruption bug, which leaves
		// stale poison where later frames live (the source of Table 5's
		// false positives and extra FNs).
		after = append(after, belowRSP(0xFF)...)
		return nil, after
	}

	// Frame-boundary unpoisoning before each epilogue:
	//   mov rsp, rbp; pop rbp; ret
	if s.Points&instr.Epilogue != 0 {
		before = poisonFrame(0x00)
		if p.Tool == Ours {
			before = append(before, belowRSP(0x00)...)
		}
		return before, nil
	}

	// Shadow checks before indexed memory accesses.
	if s.Points&instr.MemAccess != 0 {
		if m, ok := indexedAccess(*s.Entry, p.Tool); ok {
			return shadowCheck(ctx, m), nil
		}
	}
	return nil, nil
}

// Epilogue implements instr.Pass: the appended "=SAN=" reporter.
func (Pass) Epilogue(ctx *instr.Context) []serialize.Entry { return reportRoutine(ctx) }

// Instrument returns a SURI instrumenter implementing the sanitizer.
func Instrument(tool Tool) core.Instrumenter {
	return func(entries []serialize.Entry, syms *asm.Symtab) ([]serialize.Entry, error) {
		res, err := instr.Apply(entries, syms, []instr.Pass{NewPass(tool)}, instr.Options{})
		if err != nil {
			return nil, err
		}
		return res.Entries, nil
	}
}

// Rewrite applies the sanitizer to a binary via the SURI pipeline.
func Rewrite(bin []byte, tool Tool) ([]byte, error) {
	res, err := core.Rewrite(bin, core.Options{Passes: []instr.Pass{NewPass(tool)}})
	if err != nil {
		return nil, fmt.Errorf("sanitizer: %w", err)
	}
	return res.Binary, nil
}

// indexedAccess returns the memory operand to check: a load/store with an
// index register (array-style access). BASan skips byte-wide loads — one
// of its precision gaps.
func indexedAccess(e serialize.Entry, tool Tool) (x86.Mem, bool) {
	switch e.Inst.Op {
	case x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD:
	default:
		return x86.Mem{}, false
	}
	if tool == BASan && (e.Inst.Op == x86.MOVZX || e.Inst.Op == x86.MOVSX) {
		return x86.Mem{}, false
	}
	m, ok := e.Inst.MemArg()
	if !ok || m.Rip || !m.Index.Valid() || !m.Base.Valid() {
		return x86.Mem{}, false
	}
	if m.Base == x86.RSP || m.Base == x86.RBP {
		return x86.Mem{}, false // direct scalar slots: not array accesses
	}
	return m, true
}

// shadowCheck emits: lea r10,[m]; shr r10,3; cmp byte [r10+shadow],0;
// je ok; call san_report; ok:
func shadowCheck(ctx *instr.Context, m x86.Mem) []serialize.Entry {
	ok := ctx.Label("ok")
	return []serialize.Entry{
		synth(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R10.Arg(), Src: m.Arg()}),
		synth(x86.Inst{Op: x86.SHR, W: 8, Dst: x86.R10.Arg(), Src: x86.Imm(3).Arg()}),
		synth(x86.Inst{Op: x86.CMP, W: 1,
			Dst: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: ShadowBase}.Arg(), Src: x86.Imm(0).Arg()}),
		{Ins: asm.Ins{Inst: x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, Target: ok}, Synth: true},
		{Ins: asm.Ins{Inst: x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, Target: ctx.Syms.Intern(reportLabel)}, Synth: true},
		{Ins: asm.Ins{Inst: x86.Inst{Op: x86.NOP}}, Label: ok, Synth: true},
	}
}

// poisonFrame paints the two shadow granules covering [rbp, rbp+16) —
// the saved frame pointer and the return address — with the given value.
func poisonFrame(v int64) []serialize.Entry {
	return []serialize.Entry{
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(), Src: x86.RBP.Arg()}),
		synth(x86.Inst{Op: x86.SHR, W: 8, Dst: x86.R10.Arg(), Src: x86.Imm(3).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: ShadowBase}.Arg(), Src: x86.Imm(v).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: ShadowBase + 1}.Arg(), Src: x86.Imm(v).Arg()}),
	}
}

// belowRSP paints the two shadow granules covering [rsp-16, rsp). That
// region only ever holds a callee's return address and saved frame
// pointer, which are never accessed through indexed operands, so the
// poison is safe while the function runs — provided it is cleaned up.
func belowRSP(v int64) []serialize.Entry {
	return []serialize.Entry{
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(), Src: x86.RSP.Arg()}),
		synth(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.R10.Arg(), Src: x86.Imm(16).Arg()}),
		synth(x86.Inst{Op: x86.SHR, W: 8, Dst: x86.R10.Arg(), Src: x86.Imm(3).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: ShadowBase}.Arg(), Src: x86.Imm(v).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: ShadowBase + 1}.Arg(), Src: x86.Imm(v).Arg()}),
	}
}

// reportLabel names the entry of the appended diagnostic routine.
const reportLabel = "san$report"

// reportRoutine is the appended diagnostic: print "=SAN=\n" to stderr and
// exit(134).
func reportRoutine(ctx *instr.Context) []serialize.Entry {
	// The message is materialized on the stack to stay section-free.
	msg := []byte("=SAN=\n")
	var mk []serialize.Entry
	mk = append(mk, serialize.Entry{
		Ins:   asm.Ins{Inst: x86.Inst{Op: x86.ENDBR64}},
		Label: ctx.Syms.Intern(reportLabel),
		Synth: true,
	})
	mk = append(mk,
		synth(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(16).Arg()}),
	)
	for i, c := range msg {
		mk = append(mk, synth(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.RSP, Index: x86.NoReg, Disp: int32(i)}.Arg(), Src: x86.Imm(int64(c)).Arg()}))
	}
	mk = append(mk,
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.RSP.Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(int64(len(msg))).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(2).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(1).Arg()}), // write
		synth(x86.Inst{Op: x86.SYSCALL}),
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(134).Arg()}),
		synth(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()}), // exit
		synth(x86.Inst{Op: x86.SYSCALL}),
		synth(x86.Inst{Op: x86.HLT}),
	)
	return mk
}

func synth(in x86.Inst) serialize.Entry {
	return serialize.Entry{Ins: asm.Ins{Inst: in}, Synth: true}
}
