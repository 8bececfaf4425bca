package tiered_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/x86"

	_ "repro/internal/emu/tiered"
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
		{Op: x86.CMP, W: 8, Dst: x86.RBX, Src: x86.Imm(1)},
		{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0)},        // patched: skip the two corrupting movs
		{Op: x86.MOV, W: 8, Dst: x86.RAX, Src: x86.Imm(0x1000)}, // 7 bytes
		{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.RSP, Index: x86.NoReg}, Src: x86.RAX},
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
	fn[1].Src = x86.Rel(int32(skip))

	fnCode := asm(t, fn)

	main := []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RBX, Src: x86.Imm(0)},
		{Op: x86.CALL, Src: x86.Rel(0)}, // patched below
		{Op: x86.ADD, W: 8, Dst: x86.RBX, Src: x86.Imm(1)},
		{Op: x86.CMP, W: 8, Dst: x86.RBX, Src: x86.Imm(3)},
		{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0)}, // patched below
		{Op: x86.MOV, W: 8, Dst: x86.RDI, Src: x86.Imm(0)},
		{Op: x86.MOV, W: 8, Dst: x86.RAX, Src: x86.Imm(60)},
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
	main[1].Src = x86.Rel(int32(total - afterCall))
	// jcc back to the call.
	afterJcc := afterCall + sizes[2] + sizes[3] + sizes[4]
	main[4].Src = x86.Rel(int32(sizes[0] - afterJcc))

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

// TestBudgetSweepInsideSuperblock runs a looping program under every
// possible step budget. For most budgets the limit lands mid-block —
// the engine must decline the block (GuardBudget) and single-step to
// the exact interpreter error at the exact instruction.
func TestBudgetSweepInsideSuperblock(t *testing.T) {
	insts := []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RCX, Src: x86.Imm(0)},
		{Op: x86.ADD, W: 8, Dst: x86.RCX, Src: x86.Imm(1)}, // loop:
		{Op: x86.ADD, W: 8, Dst: x86.RAX, Src: x86.RCX},
		{Op: x86.XOR, W: 8, Dst: x86.RDX, Src: x86.RCX},
		{Op: x86.CMP, W: 8, Dst: x86.RCX, Src: x86.Imm(8)},
		{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(0)}, // patched below
		{Op: x86.MOV, W: 8, Dst: x86.RDI, Src: x86.RAX},
		{Op: x86.MOV, W: 8, Dst: x86.RAX, Src: x86.Imm(60)},
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
	insts[5].Src = x86.Rel(int32(-loopLen))
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
// image: the loader must invalidate the decode planes, the engine must
// drop its translations (Invalidations counter), and the run must be
// correct for the new image. An explicit InvalidatePlanes between runs
// of the same image must also retranslate, not misbehave.
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
	opts := emu.Options{Engine: emu.EngineTiered}

	// Ground truth, fresh interpreter machines.
	wantA, errA := emu.Run(binA, emu.Options{Engine: emu.EngineInterpreter})
	wantB, errB := emu.Run(binB, emu.Options{Engine: emu.EngineInterpreter})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}

	m, err := emu.LoadFile(fA, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := runMachine(t, m)
	if out.err != "" || out.exit != wantA.Exit || out.stdout != string(wantA.Stdout) || out.steps != wantA.Steps {
		t.Fatalf("run A: %+v, want exit %d", out, wantA.Exit)
	}
	s := m.TierStats()
	if s == nil || s.Translations == 0 {
		t.Fatal("first run produced no translations")
	}

	// Different image: the loader must detect it and invalidate.
	if err := emu.Reload(m, fB, opts); err != nil {
		t.Fatal(err)
	}
	out = runMachine(t, m)
	if out.err != "" || out.exit != wantB.Exit || out.stdout != string(wantB.Stdout) || out.steps != wantB.Steps {
		t.Fatalf("run B after image swap: %+v, want exit %d", out, wantB.Exit)
	}
	s = m.TierStats()
	if s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Invalidations)
	}

	// Explicit invalidation between runs of the same image.
	m.InvalidatePlanes()
	if err := emu.Reload(m, fB, opts); err != nil {
		t.Fatal(err)
	}
	out = runMachine(t, m)
	if out.err != "" || out.exit != wantB.Exit || out.steps != wantB.Steps {
		t.Fatalf("run B after explicit invalidation: %+v", out)
	}
	if s := m.TierStats(); s.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", s.Invalidations)
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
