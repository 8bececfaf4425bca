package emu_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/eval"
	"repro/internal/prog"
	"repro/internal/x86"
)

// These tests pin the engine's fallback edges: the places where a
// translated superblock must hand control back to the interpreter (or
// fault inside the block) without any observable difference.

func asm(t *testing.T, insts []x86.Inst) []byte {
	t.Helper()
	var code []byte
	for _, in := range insts {
		b, err := x86.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		code = append(code, b...)
	}
	return code
}

// TestCETViolationMidSuperblock drives a shadow-stack mismatch inside
// a translated block: a function runs clean once (warming the block to
// the translation threshold), then corrupts its return address on the
// second call, so the violating RET executes as a micro-op. Error
// text, step count, and machine state must match the interpreter.
func TestCETViolationMidSuperblock(t *testing.T) {
	// main: rbx counts calls; fn corrupts [rsp] when rbx==1.
	fn := []x86.Inst{
		{Op: x86.CMP, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(1).Arg()},
		{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()},              // patched: skip the two corrupting movs
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0x1000).Arg()}, // 7 bytes
		{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.RSP, Index: x86.NoReg}.Arg(), Src: x86.RAX.Arg()},
		{Op: x86.RET},
	}
	// Compute the jcc skip distance from real encodings.
	enc := func(in x86.Inst) int {
		b, err := x86.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		return len(b)
	}
	skip := enc(fn[2]) + enc(fn[3])
	fn[1].Src = x86.Rel(int32(skip)).Arg()

	fnCode := asm(t, fn)

	main := []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.CALL, Src: x86.Rel(0).Arg()}, // patched below
		{Op: x86.ADD, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(1).Arg()},
		{Op: x86.CMP, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(3).Arg()},
		{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0).Arg()}, // patched below
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	}
	sizes := make([]int, len(main))
	total := 0
	for i, in := range main {
		sizes[i] = enc(in)
		total += sizes[i]
	}
	// call target: fn starts right after main.
	afterCall := sizes[0] + sizes[1]
	main[1].Src = x86.Rel(int32(total - afterCall)).Arg()
	// jcc back to the call.
	afterJcc := afterCall + sizes[2] + sizes[3] + sizes[4]
	main[4].Src = x86.Rel(int32(sizes[0] - afterJcc)).Arg()

	code := append(asm(t, main), fnCode...)

	run := func(engine emu.EngineKind) (machineState, *emu.TierStats) {
		m := buildRaw(t, code, engine)
		m.EnforceCET = true
		return snapshot(m, m.Run()), m.TierStats()
	}
	si, _ := run(emu.EngineInterpreter)
	st, stats := run(emu.EngineTiered)
	if si != st {
		t.Errorf("diverged:\n  interp: %+v\n  tiered: %+v", si, st)
	}
	if !strings.Contains(st.err, "shadow stack mismatch") {
		t.Errorf("expected shadow stack mismatch, got %q", st.err)
	}
	if stats == nil {
		t.Fatal("no tier stats")
	}
	if stats.ExitError == 0 {
		t.Errorf("violation did not surface from a translated block: %+v", *stats)
	}
}

// item is one instruction of a labelled test program. label names the
// instruction's address; target names the label a Rel operand (branch
// or call) or an Imm source (an absolute address) resolves to; at
// pads with one-byte NOPs up to that address first.
type item struct {
	label  string
	at     uint64
	in     x86.Inst
	target string
}

// link assembles items at 0x1000, resolving labels. Relative branches
// are forced long, so the layout pass and the final pass agree.
func link(t *testing.T, items []item) (code []byte, labels map[string]uint64) {
	t.Helper()
	const base = 0x1000
	labels = make(map[string]uint64)
	for pass := 0; pass < 2; pass++ {
		code = code[:0]
		for _, it := range items {
			if it.at != 0 {
				if it.at < base+uint64(len(code)) {
					t.Fatalf("item at %#x overlaps code ending at %#x", it.at, base+len(code))
				}
				for base+uint64(len(code)) < it.at {
					code = append(code, asm(t, []x86.Inst{{Op: x86.NOP}})...)
				}
			}
			addr := base + uint64(len(code))
			if it.label != "" {
				if pass > 0 && labels[it.label] != addr {
					t.Fatalf("label %s moved from %#x to %#x", it.label, labels[it.label], addr)
				}
				labels[it.label] = addr
			}
			in := it.in
			switch in.Src.Kind {
			case x86.ArgRel:
				in.LongBranch = true
				if it.target != "" {
					// A long branch is 5 bytes (jmp, call) or 6 (jcc).
					n := uint64(5)
					if in.Op == x86.JCC {
						n = 6
					}
					in.Src = x86.Rel(int32(labels[it.target] - (addr + n))).Arg()
				}
			case x86.ArgImm:
				if it.target != "" {
					in.Src = x86.Imm(labels[it.target]).Arg()
				}
			}
			code = append(code, asm(t, []x86.Inst{in})...)
		}
	}
	return code, labels
}

// interpSteps is the number of instructions a tiered run retired in
// the interpreter.
func interpSteps(m *emu.Machine) uint64 { return m.Steps - m.TierStats().TierSteps }

// indirectEntryProgram calls endbr64-led fnA n times through a tracked
// call rax, then calls fnB (no endbr64) n times directly. With violate
// set it finally calls fnB through call rax, which must raise the
// missing-endbr64 violation from inside hot, translated code.
func indirectEntryProgram(t *testing.T, n int64, violate bool) []byte {
	items := []item{
		{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(0).Arg()}},
		{label: "loopA", in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0).Arg()}, target: "fnA"},
		{in: x86.Inst{Op: x86.CALL, Src: x86.RAX.Arg()}},
		{in: x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(1).Arg()}},
		{in: x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(n).Arg()}},
		{in: x86.Inst{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0).Arg()}, target: "loopA"},
		{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(0).Arg()}},
		{label: "loopB", in: x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, target: "fnB"},
		{in: x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(1).Arg()}},
		{in: x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(n).Arg()}},
		{in: x86.Inst{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0).Arg()}, target: "loopB"},
	}
	if violate {
		items = append(items,
			item{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0).Arg()}, target: "fnB"},
			item{in: x86.Inst{Op: x86.CALL, Src: x86.RAX.Arg()}},
		)
	}
	items = append(items,
		item{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RCX.Arg()}},
		item{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()}},
		item{in: x86.Inst{Op: x86.SYSCALL}},
		item{label: "fnA", in: x86.Inst{Op: x86.ENDBR64}},
		item{in: x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(1).Arg()}},
		item{in: x86.Inst{Op: x86.RET}},
		item{label: "fnB", in: x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(1).Arg()}},
		item{in: x86.Inst{Op: x86.RET}},
	)
	code, _ := link(t, items)
	return code
}

// TestIndirectEntryEndbr drives tracked indirect calls into hot,
// translated functions under CET enforcement. An entry into a block
// that starts with endbr64 must pass the check inside translated code
// (no GuardCET deferral) with the interpreter's IBTChecks count; an
// entry into a hot block without endbr64 must defer to the interpreter
// and raise its exact violation. The interpreter, the fast loop and
// the profiled loop must agree on machine state either way.
func TestIndirectEntryEndbr(t *testing.T) {
	const n = 6
	for _, violate := range []bool{false, true} {
		code := indirectEntryProgram(t, n, violate)
		run := func(engine emu.EngineKind, profiled bool) (machineState, *emu.Machine) {
			m := buildRaw(t, code, engine)
			m.EnforceCET = true
			if profiled {
				m.Prof = emu.NewProfile()
			}
			return snapshot(m, m.Run()), m
		}
		si, mi := run(emu.EngineInterpreter, true)
		sf, mf := run(emu.EngineTiered, false)
		sp, mp := run(emu.EngineTiered, true)
		if si != sf || si != sp {
			t.Errorf("violate=%v diverged:\n  interp:   %+v\n  fast:     %+v\n  profiled: %+v", violate, si, sf, sp)
		}
		if got, want := mp.Prof.IBTChecks, mi.Prof.IBTChecks; got != want || want != n {
			t.Errorf("violate=%v: IBT checks tiered %d, interpreter %d, want %d", violate, got, want, n)
		}
		for name, m := range map[string]*emu.Machine{"fast": mf, "profiled": mp} {
			s := m.TierStats()
			wantGuard := uint64(0)
			if violate {
				wantGuard = 1
			}
			if s.GuardCET != wantGuard {
				t.Errorf("violate=%v %s: GuardCET = %d, want %d (only an entry without endbr64 defers)", violate, name, s.GuardCET, wantGuard)
			}
		}
		if violate && !strings.Contains(si.err, "missing endbr64") {
			t.Errorf("expected a missing endbr64 violation, got %q", si.err)
		}
		if !violate && si.err != "" {
			t.Errorf("clean run failed: %s", si.err)
		}
	}
	// Past warm-up, every indirect entry runs translated: doubling the
	// calls leaves the interpreted step count unchanged.
	interp := func(n int64) uint64 {
		m := buildRaw(t, indirectEntryProgram(t, n, false), emu.EngineTiered)
		m.EnforceCET = true
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return interpSteps(m)
	}
	if a, b := interp(n), interp(2*n); a != b {
		t.Errorf("interpreted steps grow with indirect calls: %d for %d calls, %d for %d", a, n, b, 2*n)
	}
}

// TestReentryAfterForcedExit pins re-entry into translated code after
// a block that ends without a control transfer: at a page boundary,
// and before an instruction the translator declines (one straddling
// the page boundary, which the per-page decode plane cannot serve;
// the interpreter steps it). In both loops the successor must run
// translated once warm — past warm-up, only the declined instruction
// itself is interpreted — and match the interpreter exactly.
func TestReentryAfterForcedExit(t *testing.T) {
	loop := func(n int64, straddle bool) []byte {
		items := []item{
			{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(0).Arg()}},
			{in: x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, target: "loop"},
			{label: "loop", at: 0x1FE0, in: x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(1).Arg()}},
		}
		if straddle {
			// mov rax, imm32 is 7 bytes: 0x1FFC..0x2002.
			items = append(items, item{at: 0x1FFC, in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0x1234).Arg()}})
		} else {
			items = append(items, item{at: 0x2000, in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0x1234).Arg()}})
		}
		items = append(items,
			item{in: x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RDX.Arg(), Src: x86.RCX.Arg()}},
			item{in: x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(n).Arg()}},
			item{in: x86.Inst{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0).Arg()}, target: "loop"},
			item{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RDX.Arg()}},
			item{in: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()}},
			item{in: x86.Inst{Op: x86.SYSCALL}},
		)
		code, labels := link(t, items)
		if !straddle && labels["loop"] >= 0x2000 {
			t.Fatal("loop head not on the first page")
		}
		return code
	}
	for _, straddle := range []bool{false, true} {
		var interp []uint64
		for _, n := range []int64{8, 16} {
			code := loop(n, straddle)
			mi := buildRaw(t, code, emu.EngineInterpreter)
			si := snapshot(mi, mi.Run())
			if si.err != "" {
				t.Fatalf("straddle=%v n=%d: %s", straddle, n, si.err)
			}
			for _, profiled := range []bool{false, true} {
				mt := buildRaw(t, code, emu.EngineTiered)
				if profiled {
					mt.Prof = emu.NewProfile()
				}
				if st := snapshot(mt, mt.Run()); st != si {
					t.Errorf("straddle=%v n=%d profiled=%v diverged:\n  interp: %+v\n  tiered: %+v", straddle, n, profiled, si, st)
				}
				if !profiled {
					interp = append(interp, interpSteps(mt))
				}
			}
		}
		// The declined instruction itself steps on every iteration;
		// nothing else may.
		perIter := uint64(0)
		if straddle {
			perIter = 1
		}
		if interp[1]-interp[0] != 8*perIter {
			t.Errorf("straddle=%v: interpreted steps %d for 8 iterations, %d for 16, want %d more per iteration: the successor is not translated", straddle, interp[0], interp[1], perIter)
		}
	}
}

// TestBudgetSweepInsideSuperblock runs a looping program under every
// possible step budget. For most budgets the limit lands mid-block —
// the engine must decline the block (GuardBudget) and single-step to
// the exact interpreter error at the exact instruction.
func TestBudgetSweepInsideSuperblock(t *testing.T) {
	insts := []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.ADD, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(1).Arg()}, // loop:
		{Op: x86.ADD, W: 8, Dst: x86.RAX.Arg(), Src: x86.RCX.Arg()},
		{Op: x86.XOR, W: 8, Dst: x86.RDX.Arg(), Src: x86.RCX.Arg()},
		{Op: x86.CMP, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(8).Arg()},
		{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0).Arg()}, // patched below
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	}
	// The back-branch skips from the end of the jcc to the loop head.
	loopLen := 0
	for _, in := range insts[1:6] {
		b, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		loopLen += len(b)
	}
	insts[5].Src = x86.Rel(int32(-loopLen)).Arg()
	code := asm(t, insts)
	seed := make(map[uint64]uint64)
	for a := uint64(0x1000); a < 0x1100; a++ {
		seed[a] = 8
	}

	// Full run length first.
	mfull := buildRaw(t, code, emu.EngineInterpreter)
	if err := mfull.Run(); err != nil {
		t.Fatal(err)
	}
	total := mfull.Steps

	sawGuard := false
	for budget := uint64(1); budget <= total+1; budget++ {
		mi := buildRaw(t, code, emu.EngineInterpreter)
		mi.MaxSteps = budget
		si := snapshot(mi, mi.Run())

		mt := buildRaw(t, code, emu.EngineTiered)
		mt.MaxSteps = budget
		mt.SetHeatSeed(seed)
		st := snapshot(mt, mt.Run())

		if si != st {
			t.Errorf("budget %d diverged:\n  interp: %+v\n  tiered: %+v", budget, si, st)
		}
		if s := mt.TierStats(); s != nil && s.GuardBudget > 0 {
			sawGuard = true
		}
	}
	if !sawGuard {
		t.Error("no budget ever tripped the block-entry guard — the sweep tested nothing")
	}
}

// corpusBin compiles one deterministic benchmark program.
func corpusBin(t *testing.T, idx int) []byte {
	t.Helper()
	suites := prog.Suites(0.01)
	var progs []*prog.Program
	for _, s := range suites {
		progs = append(progs, s.Programs...)
	}
	p := progs[idx%len(progs)]
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

type runOut struct {
	exit   int
	steps  uint64
	stdout string
	err    string
}

func runMachine(t *testing.T, m *emu.Machine) runOut {
	t.Helper()
	err := m.Run()
	_, code := m.Exited()
	return runOut{exit: code, steps: m.Steps, stdout: string(m.Stdout), err: errStr(err)}
}

// TestPlaneInvalidationBetweenRuns reloads a machine with a different
// image at the same bias, on both engines: the loader must invalidate
// the decode planes — the page plane the interpreter's Step holds
// included — the tiered engine must drop its translations
// (Invalidations counter), and the run must be correct for the new
// image. An explicit InvalidatePlanes between runs of the same image
// must also retranslate, not misbehave.
func TestPlaneInvalidationBetweenRuns(t *testing.T) {
	binA, binB := corpusBin(t, 0), corpusBin(t, 1)
	fA, err := elfx.Read(binA)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := elfx.Read(binB)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth, fresh interpreter machines.
	wantA, errA := emu.Run(binA, emu.Options{Engine: emu.EngineInterpreter})
	wantB, errB := emu.Run(binB, emu.Options{Engine: emu.EngineInterpreter})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}

	for _, engine := range []emu.EngineKind{emu.EngineTiered, emu.EngineInterpreter} {
		opts := emu.Options{Engine: engine}
		tiered := engine == emu.EngineTiered
		m, err := emu.LoadFile(fA, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := runMachine(t, m)
		if out.err != "" || out.exit != wantA.Exit || out.stdout != string(wantA.Stdout) || out.steps != wantA.Steps {
			t.Fatalf("%v: run A: %+v, want exit %d", engine, out, wantA.Exit)
		}
		s := m.TierStats()
		if tiered && (s == nil || s.Translations == 0) {
			t.Fatal("first run produced no translations")
		}

		// Different image: the loader must detect it and invalidate.
		if err := emu.Reload(m, fB, opts); err != nil {
			t.Fatal(err)
		}
		out = runMachine(t, m)
		if out.err != "" || out.exit != wantB.Exit || out.stdout != string(wantB.Stdout) || out.steps != wantB.Steps {
			t.Fatalf("%v: run B after image swap: %+v, want exit %d", engine, out, wantB.Exit)
		}
		if s := m.TierStats(); tiered && s.Invalidations != 1 {
			t.Errorf("invalidations = %d, want 1", s.Invalidations)
		}

		// Explicit invalidation between runs of the same image.
		m.InvalidatePlanes()
		if err := emu.Reload(m, fB, opts); err != nil {
			t.Fatal(err)
		}
		out = runMachine(t, m)
		if out.err != "" || out.exit != wantB.Exit || out.steps != wantB.Steps {
			t.Fatalf("%v: run B after explicit invalidation: %+v", engine, out)
		}
		if s := m.TierStats(); tiered && s.Invalidations != 2 {
			t.Errorf("invalidations = %d, want 2", s.Invalidations)
		}
	}
}

// TestDefaultEngineIsTiered pins the default engine: with zero Options
// a run executes translated code, in any binary that links emu, and
// only EngineInterpreter runs without tiered state.
func TestDefaultEngineIsTiered(t *testing.T) {
	bin := corpusBin(t, 0)
	for _, opts := range []emu.Options{{}, {Engine: emu.EngineInterpreter}} {
		m, err := emu.Load(bin, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		s := m.TierStats()
		if opts.Engine == emu.EngineInterpreter {
			if s != nil {
				t.Errorf("forced interpreter left tiered state: %+v", *s)
			}
		} else if s == nil || s.TierSteps == 0 {
			t.Errorf("default Options ran no translated code: %+v", s)
		}
	}
}

// TestResetReloadAcrossEngines alternates engines across Reload of the
// same image on one machine. Results must be identical every time, and
// the translation cache must survive: the third run reuses the first
// run's translations instead of making new ones.
func TestResetReloadAcrossEngines(t *testing.T) {
	bin := corpusBin(t, 0)
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}

	m, err := emu.LoadFile(f, emu.Options{Engine: emu.EngineTiered})
	if err != nil {
		t.Fatal(err)
	}
	out1 := runMachine(t, m)
	trans1 := m.TierStats().Translations

	if err := emu.Reload(m, f, emu.Options{Engine: emu.EngineInterpreter}); err != nil {
		t.Fatal(err)
	}
	out2 := runMachine(t, m)

	if err := emu.Reload(m, f, emu.Options{Engine: emu.EngineTiered}); err != nil {
		t.Fatal(err)
	}
	out3 := runMachine(t, m)
	trans3 := m.TierStats().Translations
	if trans3 < trans1 {
		t.Errorf("translations dropped from %d to %d — cache did not survive Reset/Reload", trans1, trans3)
	}

	// By the end of the second tiered run every repeating block has hit
	// the threshold, so a fourth run must reuse the cache wholesale.
	if err := emu.Reload(m, f, emu.Options{Engine: emu.EngineTiered}); err != nil {
		t.Fatal(err)
	}
	out4 := runMachine(t, m)
	s := m.TierStats()
	if out1 != out2 || out2 != out3 || out3 != out4 {
		t.Errorf("runs diverged across engines:\n  tiered:  %+v\n  interp:  %+v\n  tiered2: %+v\n  tiered3: %+v", out1, out2, out3, out4)
	}
	if s.Translations != trans3 {
		t.Errorf("translations grew from %d to %d on a fully warm cache", trans3, s.Translations)
	}
	if s.Invalidations != 0 {
		t.Errorf("same-image reloads invalidated %d times", s.Invalidations)
	}
}

// TestWarmRunStaysTranslated runs every binary of the 48-configuration
// corpus three times on one machine, reloaded between runs the way
// validated rewrites reuse a machine. By the third run every repeating
// block is translated, so the interpreter may retire only instructions
// that must step (ones the translator declines): at most 0.1% of the
// steps, and no indirect entry may defer its endbr64 check to the
// interpreter. Staying in the interpreter after a block's
// fall-through or a forced step exceeds the share; deferring
// endbr64-led entries trips the second check.
func TestWarmRunStaysTranslated(t *testing.T) {
	cases, err := eval.BuildCorpus(0.02, cc.AllConfigs())
	if err != nil {
		t.Fatal(err)
	}
	var steps, interp uint64
	for _, c := range cases {
		if len(c.Prog.Inputs) == 0 {
			continue
		}
		f, err := elfx.Read(c.Bin)
		if err != nil {
			t.Fatal(err)
		}
		opts := emu.Options{Input: encodeInput(c.Prog.Inputs[0]), Engine: emu.EngineTiered}
		m, err := emu.LoadFile(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		// TierSteps accumulates across runs on one machine.
		var tier, tierBefore uint64
		for run := 0; run < 3; run++ {
			if run > 0 {
				if err := emu.Reload(m, f, opts); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(); err != nil {
				t.Fatalf("%s/%s run %d: %v", c.Prog.Name, c.Config, run, err)
			}
			tierBefore, tier = tier, m.TierStats().TierSteps
		}
		steps += m.Steps
		interp += m.Steps - (tier - tierBefore)
		// Corpus programs raise no CET violation, so no indirect entry
		// may defer to the interpreter: every one lands on endbr64.
		if g := m.TierStats().GuardCET; g != 0 {
			t.Errorf("%s/%s: %d indirect entries deferred to the interpreter", c.Prog.Name, c.Config, g)
		}
	}
	if steps == 0 {
		t.Fatal("corpus executed nothing")
	}
	share := float64(interp) / float64(steps)
	t.Logf("warm third run: %d of %d steps interpreted (%.3f%%)", interp, steps, 100*share)
	if share > 0.001 {
		t.Errorf("warm third run interpreted %.3f%% of steps, want <= 0.1%%", 100*share)
	}
}

// TestConcurrentMachinesTiered runs the tiered engine on many machines
// at once over one parsed binary — the validation farm's shape. Each
// machine owns its decode planes and translations; run under -race by
// scripts/check.sh, this proves the engine keeps no shared mutable
// state, and every machine must match a sequential run.
func TestConcurrentMachinesTiered(t *testing.T) {
	bin := corpusBin(t, 1)
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	opts := emu.Options{Engine: emu.EngineTiered}

	seq, err := emu.LoadFile(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := runMachine(t, seq)
	if want.err != "" {
		t.Fatal(want.err)
	}

	var wg sync.WaitGroup
	outs := make([]runOut, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := emu.LoadFile(f, opts)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = runMachine(t, m)
			if s := m.TierStats(); s == nil || s.TierSteps == 0 {
				t.Errorf("machine %d never ran translated code", i)
			}
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if out != want {
			t.Errorf("machine %d diverged: %+v != %+v", i, out, want)
		}
	}
}
