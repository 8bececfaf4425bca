package emu_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/prog"
	"repro/internal/x86"
)

// The tiered engine's correctness claim is bit-identity with the
// interpreter: same registers, memory effects, I/O, step counts,
// profile counters, CET events, and error text on every program. These
// tests pin that claim on the full 48-config benchmark corpus and on
// differential random-code runs.

// errStr renders an error for comparison; nil becomes "".
func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareResults fails the test wherever a tiered run diverged from
// the interpreted ground truth.
func compareResults(t *testing.T, label string, ir, tr *emu.Result, ierr, terr error) {
	t.Helper()
	if errStr(ierr) != errStr(terr) {
		t.Errorf("%s: error mismatch:\n  interp: %v\n  tiered: %v", label, ierr, terr)
		return
	}
	if ir == nil || tr == nil {
		if (ir == nil) != (tr == nil) {
			t.Errorf("%s: result presence mismatch", label)
		}
		return
	}
	if ir.Exit != tr.Exit {
		t.Errorf("%s: exit %d != %d", label, ir.Exit, tr.Exit)
	}
	if ir.Steps != tr.Steps {
		t.Errorf("%s: steps %d != %d", label, ir.Steps, tr.Steps)
	}
	if !bytes.Equal(ir.Stdout, tr.Stdout) {
		t.Errorf("%s: stdout diverged:\n  interp: %q\n  tiered: %q", label, ir.Stdout, tr.Stdout)
	}
	if !bytes.Equal(ir.Stderr, tr.Stderr) {
		t.Errorf("%s: stderr diverged", label)
	}
	compareProfiles(t, label, ir.Prof, tr.Prof)
}

func compareProfiles(t *testing.T, label string, ip, tp *emu.Profile) {
	t.Helper()
	if (ip == nil) != (tp == nil) {
		t.Errorf("%s: profile presence mismatch", label)
		return
	}
	if ip == nil {
		return
	}
	if ip.Opcode != tp.Opcode {
		for op := range ip.Opcode {
			if ip.Opcode[op] != tp.Opcode[op] {
				t.Errorf("%s: opcode[%v] count %d != %d", label, x86.Op(op), ip.Opcode[op], tp.Opcode[op])
			}
		}
	}
	if len(ip.Heat) != len(tp.Heat) {
		t.Errorf("%s: heat map size %d != %d", label, len(ip.Heat), len(tp.Heat))
	}
	for addr, n := range ip.Heat {
		if tp.Heat[addr] != n {
			t.Errorf("%s: heat[%#x] %d != %d", label, addr, n, tp.Heat[addr])
		}
	}
	if len(ip.Syscalls) != len(tp.Syscalls) {
		t.Errorf("%s: syscall log length %d != %d", label, len(ip.Syscalls), len(tp.Syscalls))
	} else {
		for i := range ip.Syscalls {
			if ip.Syscalls[i] != tp.Syscalls[i] {
				t.Errorf("%s: syscall[%d] %+v != %+v", label, i, ip.Syscalls[i], tp.Syscalls[i])
			}
		}
	}
	if ip.Dropped != tp.Dropped {
		t.Errorf("%s: dropped syscalls %d != %d", label, ip.Dropped, tp.Dropped)
	}
	if ip.IBTChecks != tp.IBTChecks {
		t.Errorf("%s: IBT checks %d != %d", label, ip.IBTChecks, tp.IBTChecks)
	}
	if ip.NotrackBranches != tp.NotrackBranches {
		t.Errorf("%s: notrack branches %d != %d", label, ip.NotrackBranches, tp.NotrackBranches)
	}
	if ip.ShadowPushes != tp.ShadowPushes {
		t.Errorf("%s: shadow pushes %d != %d", label, ip.ShadowPushes, tp.ShadowPushes)
	}
	if ip.ShadowPops != tp.ShadowPops {
		t.Errorf("%s: shadow pops %d != %d", label, ip.ShadowPops, tp.ShadowPops)
	}
}

// TestParityCorpus runs every binary of the 48-configuration corpus on
// every test input under both engines — profiled (exercising the
// profiled dispatch loop and every counter) and unprofiled (the
// validation hot path) — and requires bit-identical results. It also
// requires the tiered engine to have actually translated the bulk of
// the work, so the parity is not vacuous.
func TestParityCorpus(t *testing.T) {
	cases, err := eval.BuildCorpus(0.02, cc.AllConfigs())
	if err != nil {
		t.Fatal(err)
	}
	var totalSteps, tierSteps uint64
	for _, c := range cases {
		inputs := c.Prog.Inputs
		if len(inputs) > 2 {
			inputs = inputs[:2]
		}
		for vi, vals := range inputs {
			input := encodeInput(vals)
			label := c.Prog.Name + "/" + c.Config.String()

			ires, ierr := emu.Run(c.Bin, emu.Options{
				Input: input, Profile: true, Engine: emu.EngineInterpreter,
			})
			tres, terr := emu.Run(c.Bin, emu.Options{
				Input: input, Profile: true, Engine: emu.EngineTiered,
			})
			compareResults(t, label, ires, tres, ierr, terr)

			// Unprofiled tiered run (the fast dispatch loop) against the
			// same ground truth.
			fres, ferr := emu.Run(c.Bin, emu.Options{
				Input: input, Engine: emu.EngineTiered,
			})
			if errStr(ierr) != errStr(ferr) {
				t.Errorf("%s (fast): error mismatch: %v vs %v", label, ierr, ferr)
			} else if fres != nil && ires != nil {
				if fres.Exit != ires.Exit || fres.Steps != ires.Steps ||
					!bytes.Equal(fres.Stdout, ires.Stdout) || !bytes.Equal(fres.Stderr, ires.Stderr) {
					t.Errorf("%s (fast): behaviour diverged", label)
				}
				if fres.Tier != nil {
					totalSteps += fres.Steps
					tierSteps += fres.Tier.TierSteps
				}
			}
			if vi == 0 && tres != nil && tres.Tier == nil {
				t.Errorf("%s: tiered run reported no tier stats", label)
			}
		}
	}
	if totalSteps == 0 {
		t.Fatal("corpus executed nothing")
	}
	if frac := float64(tierSteps) / float64(totalSteps); frac < 0.95 {
		t.Errorf("tiered engine covered only %.1f%% of steps — parity would be vacuous", 100*frac)
	} else {
		t.Logf("tiered coverage: %.1f%% of %d steps", 100*float64(tierSteps)/float64(totalSteps), totalSteps)
	}
}

// machineState snapshots everything observable about a finished
// hand-built machine.
type machineState struct {
	regs   [16]uint64
	rip    uint64
	flags  x86.Flags
	steps  uint64
	stdout string
	stderr string
	err    string
}

func snapshot(m *emu.Machine, err error) machineState {
	return machineState{
		regs: m.Regs, rip: m.RIP, flags: m.Flags, steps: m.Steps,
		stdout: string(m.Stdout), stderr: string(m.Stderr), err: errStr(err),
	}
}

// buildRaw maps raw code bytes at 0x1000 (as many executable pages as
// they need, at least one) on a fresh machine with a stack.
func buildRaw(t *testing.T, code []byte, engine emu.EngineKind) *emu.Machine {
	t.Helper()
	m := emu.NewMachine()
	m.Engine = engine
	m.MaxSteps = 2000
	size := max(uint64(len(code)+emu.PageSize-1)&^(emu.PageSize-1), emu.PageSize)
	m.Mem.Map(0x1000, size, emu.PermR|emu.PermW)
	if err := m.Mem.Write(0x1000, code); err != nil {
		t.Fatal(err)
	}
	m.Mem.Protect(0x1000, size, emu.PermR|emu.PermX)
	m.Mem.Map(0x7FF00000-0x10000, 0x10000, emu.PermR|emu.PermW)
	m.Regs[x86.RSP] = 0x7FF00000 - 64
	m.RIP = 0x1000
	return m
}

// TestParityRandomCode feeds identical random byte soup to both
// engines. Random code faults in random ways — undecodable bytes,
// wild loads, budget exhaustion — so this differentially fuzzes the
// fallback edges and error wrapping. A heat seed over the whole page
// forces translation on first arrival everywhere it is possible at
// all, maximizing time spent in translated code.
func TestParityRandomCode(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	seed := make(map[uint64]uint64)
	for a := uint64(0x1000); a < 0x2000; a++ {
		seed[a] = 8
	}
	for i := 0; i < 400; i++ {
		code := make([]byte, 256)
		r.Read(code)

		mi := buildRaw(t, code, emu.EngineInterpreter)
		si := snapshot(mi, mi.Run())

		mt := buildRaw(t, code, emu.EngineTiered)
		mt.SetHeatSeed(seed)
		st := snapshot(mt, mt.Run())

		if si != st {
			t.Errorf("iteration %d diverged:\n  interp: %+v\n  tiered: %+v", i, si, st)
		}
	}
}

// TestParityRandomInstructions is the structured variant: encode
// random-but-valid instruction sequences, so runs last longer before
// faulting and exercise the specialized micro-ops (ALU widths, partial
// registers, shifts, cmov) rather than the decoder's reject path.
func TestParityRandomInstructions(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDX, x86.RSI, x86.RDI, x86.R8, x86.R9}
	widths := []uint8{1, 2, 4, 8}
	for iter := 0; iter < 200; iter++ {
		var code []byte
		for len(code) < 200 {
			reg := func() x86.Reg { return regs[r.Intn(len(regs))] }
			w := widths[r.Intn(len(widths))]
			var in x86.Inst
			switch r.Intn(10) {
			case 0:
				in = x86.Inst{Op: x86.MOV, W: w, Dst: reg().Arg(), Src: x86.Imm(r.Int63n(1 << 30)).Arg()}
			case 1:
				in = x86.Inst{Op: x86.MOV, W: w, Dst: reg().Arg(), Src: reg().Arg()}
			case 2:
				in = x86.Inst{Op: []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR}[r.Intn(5)], W: w, Dst: reg().Arg(), Src: reg().Arg()}
			case 3:
				in = x86.Inst{Op: []x86.Op{x86.CMP, x86.TEST}[r.Intn(2)], W: w, Dst: reg().Arg(), Src: x86.Imm(r.Int63n(128)).Arg()}
			case 4:
				in = x86.Inst{Op: []x86.Op{x86.SHL, x86.SHR, x86.SAR}[r.Intn(3)], W: w, Dst: reg().Arg(), Src: x86.Imm(r.Int63n(70)).Arg()}
			case 5:
				in = x86.Inst{Op: x86.SETCC, Cond: x86.Cond(r.Intn(10)), W: 1, Dst: reg().Arg()}
			case 6:
				in = x86.Inst{Op: x86.CMOVCC, Cond: x86.Cond(r.Intn(10)), W: []uint8{4, 8}[r.Intn(2)], Dst: reg().Arg(), Src: reg().Arg()}
			case 7:
				in = x86.Inst{Op: x86.LEA, W: 8, Dst: reg().Arg(), Src: x86.Mem{Base: reg(), Index: x86.NoReg, Disp: int32(r.Intn(64))}.Arg()}
			case 8:
				in = x86.Inst{Op: x86.MOVZX, W: []uint8{4, 8}[r.Intn(2)], SrcW: []uint8{1, 2}[r.Intn(2)], Dst: reg().Arg(), Src: reg().Arg()}
			default:
				in = x86.Inst{Op: x86.IMUL, W: []uint8{4, 8}[r.Intn(2)], Dst: reg().Arg(), Src: reg().Arg()}
			}
			b, err := x86.Encode(in)
			if err != nil {
				continue
			}
			code = append(code, b...)
		}
		// Terminate with exit(RAX & 0xFF) so clean paths exist too.
		for _, in := range []x86.Inst{
			{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()},
			{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
			{Op: x86.SYSCALL},
		} {
			b, err := x86.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			code = append(code, b...)
		}

		seed := map[uint64]uint64{0x1000: 8}
		mi := buildRaw(t, code, emu.EngineInterpreter)
		si := snapshot(mi, mi.Run())
		mt := buildRaw(t, code, emu.EngineTiered)
		mt.SetHeatSeed(seed)
		st := snapshot(mt, mt.Run())
		if si != st {
			t.Errorf("iteration %d diverged:\n  interp: %+v\n  tiered: %+v", iter, si, st)
		}
	}
}

// TestParityCxxAxes pins engine parity on C++-shaped binaries — landing
// pads, vtable dispatch through mid-table pointers, TLS, in-text data —
// across a slice of configurations that also spans the stripped and
// no-unwind axes, which the 48-config corpus above does not reach.
func TestParityCxxAxes(t *testing.T) {
	configs := []string{
		"gcc-11/ld/O2",
		"gcc-13/gold/O1",
		"clang-10/ld/O0",
		"clang-13/gold/O3/stripped",
		"gcc-11/ld/Os/nounwind",
		"clang-13/ld/O2/stripped",
	}
	for ci, cs := range configs {
		cfg, err := cc.ParseConfig(cs)
		if err != nil {
			t.Fatalf("config %q: %v", cs, err)
		}
		feats := gen.AllFeatures()
		feats.Stripped = cfg.Stripped
		p := gen.Generate("cxp", int64(ci+1), prog.Shapes["small"], feats)
		bin, err := cc.Compile(p.Module, cfg)
		if err != nil {
			t.Fatalf("compile %s: %v", cs, err)
		}
		inputs := p.Inputs
		if len(inputs) > 2 {
			inputs = inputs[:2]
		}
		for _, vals := range inputs {
			input := encodeInput(vals)
			label := "cxx/" + cs
			ires, ierr := emu.Run(bin, emu.Options{Input: input, Profile: true, Engine: emu.EngineInterpreter})
			tres, terr := emu.Run(bin, emu.Options{Input: input, Profile: true, Engine: emu.EngineTiered})
			compareResults(t, label, ires, tres, ierr, terr)
		}
	}
}
