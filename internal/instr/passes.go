package instr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// The standard pass library. Every pass is a stateless value (per-run
// state lives in the Context), preserves all registers via payload
// spill slots, and — except for the shadow stack's flag-dead CMP/JCC
// before ret — uses only flag-transparent MOV/LEA sequences, so passes
// compose at shared anchors without interference.

// Coverage is an AFL-style coverage bitmap pass. In the default edge
// mode the payload is a 3N-byte map (N blocks) where executing the
// prev->cur edge sets map[prev + 2*cur], plus an 8-byte previous-block
// slot; in block mode it is an N-byte map of executed blocks.
type Coverage struct {
	// Blocks selects block coverage instead of edge coverage.
	Blocks bool
}

// Name implements Pass.
func (Coverage) Name() string { return "coverage" }

// Fingerprint implements Fingerprinter.
func (c Coverage) Fingerprint() string {
	if c.Blocks {
		return "coverage/block/v1"
	}
	return "coverage/edge/v1"
}

// Setup implements Pass.
func (c Coverage) Setup(ctx *Context) error {
	if c.Blocks {
		ctx.Alloc("map", ctx.Blocks, 8)
		return nil
	}
	ctx.Alloc("map", 3*ctx.Blocks, 8)
	ctx.Alloc("prev", 8, 8)
	return nil
}

// Visit implements Pass.
func (c Coverage) Visit(ctx *Context, s Site) (before, after []serialize.Entry) {
	if s.Points&BlockEntry == 0 {
		return nil, nil
	}
	id := int32(s.Block)
	if c.Blocks {
		b := ctx.SaveRegs(x86.R11)
		b = append(b,
			RipLea(x86.R11, ctx.Sym("map")),
			synthI(x86.Inst{Op: x86.MOV, W: 1,
				Dst: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: id}.Arg(), Src: x86.Imm(1).Arg()}),
		)
		return append(b, ctx.RestoreRegs(x86.R11)...), nil
	}
	b := ctx.SaveRegs(x86.R10, x86.R11)
	b = append(b,
		RipLoad(x86.R10, ctx.Sym("prev")),
		RipLea(x86.R11, ctx.Sym("map")),
		// map[prev + 2*cur] = 1
		synthI(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.R11, Index: x86.R10, Scale: 1, Disp: 2 * id}.Arg(), Src: x86.Imm(1).Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(), Src: x86.Imm(int64(id)).Arg()}),
		RipStore(ctx.Sym("prev"), x86.R10),
	)
	return append(b, ctx.RestoreRegs(x86.R10, x86.R11)...), nil
}

// Epilogue implements Pass.
func (Coverage) Epilogue(*Context) []serialize.Entry { return nil }

// Counters is a basic-block hit counter pass: an 8-byte saturating-free
// counter per block, incremented with LEA so flags stay untouched.
type Counters struct{}

// Name implements Pass.
func (Counters) Name() string { return "counters" }

// Fingerprint implements Fingerprinter.
func (Counters) Fingerprint() string { return "counters/v1" }

// Setup implements Pass.
func (Counters) Setup(ctx *Context) error {
	ctx.Alloc("hits", 8*ctx.Blocks, 8)
	return nil
}

// Visit implements Pass.
func (Counters) Visit(ctx *Context, s Site) (before, after []serialize.Entry) {
	if s.Points&BlockEntry == 0 {
		return nil, nil
	}
	disp := int32(8 * s.Block)
	b := ctx.SaveRegs(x86.R10, x86.R11)
	b = append(b,
		RipLea(x86.R11, ctx.Sym("hits")),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: disp}.Arg()}),
		synthI(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: 1}.Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8,
			Dst: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: disp}.Arg(), Src: x86.R10.Arg()}),
	)
	return append(b, ctx.RestoreRegs(x86.R10, x86.R11)...), nil
}

// Epilogue implements Pass.
func (Counters) Epilogue(*Context) []serialize.Entry { return nil }

// CallTrace logs indirect-branch targets: each indirect call/jmp site
// gets a 16-byte payload slot {invocation count, last target}. The
// target operand is read before anything is clobbered (spills are
// stores, so the anchor's registers stay live). Sites whose target the
// pass cannot re-evaluate safely record only the count.
type CallTrace struct{}

// Name implements Pass.
func (CallTrace) Name() string { return "calltrace" }

// Fingerprint implements Fingerprinter.
func (CallTrace) Fingerprint() string { return "calltrace/v1" }

// Setup implements Pass.
func (CallTrace) Setup(ctx *Context) error {
	ctx.Alloc("log", 16*ctx.Indirects, 8)
	return nil
}

// Visit implements Pass.
func (CallTrace) Visit(ctx *Context, s Site) (before, after []serialize.Entry) {
	if s.Points&BeforeIndirect == 0 {
		return nil, nil
	}
	slot := int32(16 * s.Indirect)
	b := ctx.SaveRegs(x86.R10, x86.R11)
	// Capture the target into R10 by re-evaluating the anchor's operand.
	captured := true
	switch t := s.Entry.Inst.Src; t.Kind {
	case x86.ArgReg:
		b = append(b, synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(), Src: t}))
	case x86.ArgMem:
		if t.Rip {
			if s.Entry.Target == 0 {
				captured = false
			} else {
				b = append(b, serialize.Entry{
					Ins: asm.Ins{Inst: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(), Src: t},
						Target: s.Entry.Target, Addend: s.Entry.Addend},
					Synth: true,
				})
			}
		} else {
			b = append(b, synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(), Src: t}))
		}
	default:
		captured = false
	}
	b = append(b, RipLea(x86.R11, ctx.Sym("log")))
	if captured {
		b = append(b, synthI(x86.Inst{Op: x86.MOV, W: 8,
			Dst: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: slot + 8}.Arg(), Src: x86.R10.Arg()}))
	}
	b = append(b,
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: slot}.Arg()}),
		synthI(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: 1}.Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8,
			Dst: x86.Mem{Base: x86.R11, Index: x86.NoReg, Disp: slot}.Arg(), Src: x86.R10.Arg()}),
	)
	return append(b, ctx.RestoreRegs(x86.R10, x86.R11)...), nil
}

// Epilogue implements Pass.
func (CallTrace) Epilogue(*Context) []serialize.Entry { return nil }

// ShadowStack is a software return-address checker, the natural
// companion to the pipeline's endbr64 repair: function entries push
// the live return address ([RSP] at the landing pad) onto a payload
// shadow stack; every ret compares [RSP] against the popped shadow
// entry and diverts to a reporting routine ("=SS=\n" on stderr, exit
// 135) on mismatch. An empty shadow stack skips the check, so binaries
// whose functions the census cannot see (no endbr64 landing pads)
// degrade to a no-op instead of false-positive kills.
type ShadowStack struct{}

// ShadowStackDepth is the shadow stack capacity in frames.
const ShadowStackDepth = 8192

// Name implements Pass.
func (ShadowStack) Name() string { return "shadowstack" }

// Fingerprint implements Fingerprinter.
func (ShadowStack) Fingerprint() string { return "shadowstack/v1" }

// Setup implements Pass.
func (ShadowStack) Setup(ctx *Context) error {
	ctx.Alloc("stack", 8*ShadowStackDepth, 8)
	ctx.Alloc("top", 8, 8)
	return nil
}

// Visit implements Pass.
func (s ShadowStack) Visit(ctx *Context, site Site) (before, after []serialize.Entry) {
	if site.Points&FuncEntry != 0 {
		// Push [RSP] (the return address while the landing pad runs).
		b := ctx.SaveRegs(x86.R10, x86.R11)
		b = append(b,
			RipLoad(x86.R10, ctx.Sym("top")),
			RipLea(x86.R11, ctx.Sym("stack")),
			synthI(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R11.Arg(),
				Src: x86.Mem{Base: x86.R11, Index: x86.R10, Scale: 1}.Arg()}),
			synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
				Src: x86.Mem{Base: x86.RSP, Index: x86.NoReg}.Arg()}),
			synthI(x86.Inst{Op: x86.MOV, W: 8,
				Dst: x86.Mem{Base: x86.R11, Index: x86.NoReg}.Arg(), Src: x86.R10.Arg()}),
			RipLoad(x86.R10, ctx.Sym("top")),
			synthI(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R10.Arg(),
				Src: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: 8}.Arg()}),
			RipStore(ctx.Sym("top"), x86.R10),
		)
		b = append(b, ctx.RestoreRegs(x86.R10, x86.R11)...)
		// The framework slides before-insertions past the endbr64 anyway;
		// returning them as "after" states the intent.
		return nil, b
	}
	if site.Points&BeforeRet == 0 {
		return nil, nil
	}
	// Pop and compare. Flags are dead immediately before ret (SysV), so
	// CMP/JCC is safe here and only here.
	skip := ctx.Label("ssok")
	b := ctx.SaveRegs(x86.R10, x86.R11)
	b = append(b,
		RipLoad(x86.R10, ctx.Sym("top")),
		synthI(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.R10.Arg(), Src: x86.Imm(0).Arg()}),
		serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()},
			Target: skip}, Synth: true},
		synthI(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: -8}.Arg()}),
		RipStore(ctx.Sym("top"), x86.R10),
		RipLea(x86.R11, ctx.Sym("stack")),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R11.Arg(),
			Src: x86.Mem{Base: x86.R11, Index: x86.R10, Scale: 1}.Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.RSP, Index: x86.NoReg}.Arg()}),
		synthI(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.R10.Arg(), Src: x86.R11.Arg()}),
		serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()},
			Target: ctx.Sym("fail")}, Synth: true},
	)
	rest := ctx.RestoreRegs(x86.R10, x86.R11)
	rest[0].Label = skip
	return append(b, rest...), nil
}

// Epilogue implements Pass: the mismatch reporter.
func (ShadowStack) Epilogue(ctx *Context) []serialize.Entry {
	msg := []byte("=SS=\n")
	out := []serialize.Entry{
		{Ins: asm.Ins{Inst: x86.Inst{Op: x86.ENDBR64}}, Label: ctx.Sym("fail"), Synth: true},
		synthI(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(16).Arg()}),
	}
	for i, c := range msg {
		out = append(out, synthI(x86.Inst{Op: x86.MOV, W: 1,
			Dst: x86.Mem{Base: x86.RSP, Index: x86.NoReg, Disp: int32(i)}.Arg(), Src: x86.Imm(int64(c)).Arg()}))
	}
	out = append(out,
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.RSP.Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(int64(len(msg))).Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(2).Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(1).Arg()}), // write
		synthI(x86.Inst{Op: x86.SYSCALL}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(135).Arg()}),
		synthI(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()}), // exit
		synthI(x86.Inst{Op: x86.SYSCALL}),
		synthI(x86.Inst{Op: x86.HLT}),
	)
	return out
}

func synthI(in x86.Inst) serialize.Entry {
	return serialize.Entry{Ins: asm.Ins{Inst: in}, Synth: true}
}

// standard maps registry names to standard pass constructors.
var standard = map[string]func() Pass{
	"coverage":    func() Pass { return Coverage{} },
	"counters":    func() Pass { return Counters{} },
	"calltrace":   func() Pass { return CallTrace{} },
	"shadowstack": func() Pass { return ShadowStack{} },
}

// Names lists the standard pass names, sorted.
func Names() []string {
	out := make([]string, 0, len(standard))
	for n := range standard {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New returns a fresh standard pass by name.
func New(name string) (Pass, error) {
	mk, ok := standard[name]
	if !ok {
		return nil, fmt.Errorf("instr: unknown pass %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return mk(), nil
}

// ParseList parses a comma-separated pass list ("coverage,shadowstack")
// into pass values, rejecting unknown names and duplicates. An empty
// list yields nil.
func ParseList(list string) ([]Pass, error) {
	var out []Pass
	seen := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("instr: duplicate pass %q", name)
		}
		seen[name] = true
		p, err := New(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// FingerprintList returns a stable identity for the pass list when
// every pass implements Fingerprinter; ok is false otherwise (such
// artifacts are uncacheable in the farm).
func FingerprintList(passes []Pass) (string, bool) {
	if len(passes) == 0 {
		return "", true
	}
	parts := make([]string, len(passes))
	for i, p := range passes {
		f, ok := p.(Fingerprinter)
		if !ok {
			return "", false
		}
		parts[i] = f.Fingerprint()
	}
	return strings.Join(parts, "+"), true
}
