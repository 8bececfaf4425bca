package emu

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/x86"
)

// buildMachine assembles raw instructions at base and returns a machine
// ready to execute them.
func buildMachine(t *testing.T, base uint64, insts []x86.Inst) *Machine {
	t.Helper()
	var code []byte
	for _, in := range insts {
		b, err := x86.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		code = append(code, b...)
	}
	m := NewMachine()
	m.Mem.Map(base, uint64(len(code)+PageSize), PermR|PermW)
	if err := m.Mem.Write(base, code); err != nil {
		t.Fatal(err)
	}
	m.Mem.Protect(base, uint64(len(code)+PageSize), PermR|PermX)
	m.Mem.Map(0x7FF00000-0x10000, 0x10000, PermR|PermW)
	m.Regs[x86.RSP] = 0x7FF00000 - 64
	m.RIP = base
	return m
}

func TestBasicArithmetic(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(40).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(2).Arg()},
		{Op: x86.ADD, W: 8, Dst: x86.RAX.Arg(), Src: x86.RBX.Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if done, code := m.Exited(); !done || code != 42 {
		t.Errorf("exit = %v %d", done, code)
	}
	if m.Steps != 6 {
		t.Errorf("steps = %d, want 6", m.Steps)
	}
}

func TestFlagsAndBranches(t *testing.T) {
	// if (5 < 7) exit(1) else exit(0)
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(5).Arg()},
		{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(7).Arg()},
		{Op: x86.JCC, Cond: x86.CondL, Src: x86.Rel(7).Arg(), LongBranch: false}, // skip "mov rdi,0; jmp +?" block
		{Op: x86.MOV, W: 4, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},           // 5 bytes
		{Op: x86.JMP, Src: x86.Rel(5).Arg()},                                     // 2 bytes, skip mov rdi,1
		{Op: x86.MOV, W: 4, Dst: x86.RDI.Arg(), Src: x86.Imm(1).Arg()},           // 5 bytes
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, code := m.Exited(); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

func TestNXEnforcement(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0x5000).Arg()},
		{Op: x86.JMP, Src: x86.RAX.Arg(), NoTrack: true},
	})
	// Map a readable-but-not-executable page at the jump target.
	m.Mem.Map(0x5000, PageSize, PermR)
	err := m.Run()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != "exec" {
		t.Errorf("expected exec fault, got %v", err)
	}
}

func TestIBTEnforcement(t *testing.T) {
	// Indirect jmp (tracked) to a non-endbr instruction must fault; with
	// notrack it must succeed.
	target := []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(9).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	}
	for _, notrack := range []bool{false, true} {
		jumper := []x86.Inst{
			{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0x2000).Arg()},
			{Op: x86.JMP, Src: x86.RAX.Arg(), NoTrack: notrack},
		}
		m := buildMachine(t, 0x1000, jumper)
		var code []byte
		for _, in := range target {
			b, _ := x86.Encode(in)
			code = append(code, b...)
		}
		m.Mem.Map(0x2000, PageSize, PermR|PermW)
		m.Mem.Write(0x2000, code)
		m.Mem.Protect(0x2000, PageSize, PermR|PermX)
		m.EnforceCET = true

		err := m.Run()
		if notrack {
			if err != nil {
				t.Errorf("notrack jmp faulted: %v", err)
			}
		} else {
			var v *CETViolation
			if !errors.As(err, &v) {
				t.Errorf("tracked jmp to non-endbr did not fault: %v", err)
			}
		}
	}
}

func TestIBTEndbrTargetOK(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0x2000).Arg()},
		{Op: x86.JMP, Src: x86.RAX.Arg()},
	})
	var code []byte
	for _, in := range []x86.Inst{
		{Op: x86.ENDBR64},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(5).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	} {
		b, _ := x86.Encode(in)
		code = append(code, b...)
	}
	m.Mem.Map(0x2000, PageSize, PermR|PermW)
	m.Mem.Write(0x2000, code)
	m.Mem.Protect(0x2000, PageSize, PermR|PermX)
	m.EnforceCET = true
	if err := m.Run(); err != nil {
		t.Fatalf("endbr-targeted jmp faulted: %v", err)
	}
	if _, code := m.Exited(); code != 5 {
		t.Errorf("exit = %d", code)
	}
}

func TestShadowStack(t *testing.T) {
	// A function that overwrites its return address must trip SHSTK.
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.CALL, Src: x86.Rel(10).Arg()},                          // call f (skip the next 10 bytes)
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()}, // 7 bytes
		{Op: x86.SYSCALL}, // 2 bytes
		{Op: x86.HLT},     // 1 byte
		// f: clobber return address, then ret.
		{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.RSP, Index: x86.NoReg}.Arg(), Src: x86.Imm(0x1000).Arg()},
		{Op: x86.RET},
	})
	m.EnforceCET = true
	err := m.Run()
	var v *CETViolation
	if !errors.As(err, &v) || !strings.Contains(v.Kind, "shadow") {
		t.Errorf("expected shadow stack violation, got %v", err)
	}
}

func TestWriteProtect(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Disp: 0x5000}.Arg(), Src: x86.Imm(1).Arg()},
	})
	m.Mem.Map(0x5000, PageSize, PermR) // read-only
	err := m.Run()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != "write" {
		t.Errorf("expected write fault, got %v", err)
	}
}

func TestDivideFault(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(10).Arg()},
		{Op: x86.CQO, W: 8},
		{Op: x86.XOR, W: 4, Dst: x86.RCX.Arg(), Src: x86.RCX.Arg()},
		{Op: x86.IDIV, W: 8, Dst: x86.RCX.Arg()},
	})
	if err := m.Run(); !errors.Is(err, ErrDivide) {
		t.Errorf("expected divide error, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.JMP, Src: x86.Rel(-2).Arg()}, // tight self-loop
	})
	m.MaxSteps = 1000
	if err := m.Run(); !errors.Is(err, ErrStepLimit) {
		t.Errorf("expected step limit, got %v", err)
	}
}

// TestParseEngine pins the surirun -engine spellings: auto and the
// empty string still name the default, now always the tiered engine.
func TestParseEngine(t *testing.T) {
	for s, want := range map[string]EngineKind{
		"": EngineTiered, "auto": EngineTiered, "tiered": EngineTiered,
		"interpreter": EngineInterpreter, "interp": EngineInterpreter,
	} {
		if got, err := ParseEngine(s); err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEngine("jit"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
}

func TestRegisterWidthSemantics(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(-1).Arg()},
		{Op: x86.MOV, W: 4, Dst: x86.RAX.Arg(), Src: x86.Imm(7).Arg()}, // zeroes upper half
		{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(-1).Arg()},
		{Op: x86.MOV, W: 1, Dst: x86.RBX.Arg(), Src: x86.Imm(7).Arg()}, // merges low byte
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.SYSCALL},
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[x86.RBX] != 0xFFFFFFFFFFFFFF07 {
		t.Errorf("byte write semantics wrong: %#x", m.Regs[x86.RBX])
	}
}

func TestMemoryCoalesce(t *testing.T) {
	mem := NewMemory()
	mem.Map(0x1000, 0x1000, PermR)
	mem.Map(0x2000, 0x1000, PermR)
	mem.Map(0x5000, 0x1000, PermR)
	rs := mem.MappedRanges()
	if len(rs) != 2 || rs[0] != (Range{0x1000, 0x3000}) || rs[1] != (Range{0x5000, 0x6000}) {
		t.Errorf("ranges = %+v", rs)
	}
}

func TestAutoRWShadow(t *testing.T) {
	m := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Disp: ShadowStart + 0x100}.Arg(), Src: x86.Imm(1).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	})
	// Without auto-map: fault.
	if err := m.Run(); err == nil {
		t.Error("unmapped shadow write succeeded")
	}
	// With auto-map: fine.
	m2 := buildMachine(t, 0x1000, []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Disp: ShadowStart + 0x100}.Arg(), Src: x86.Imm(1).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.SYSCALL},
	})
	m2.Mem.AddAutoRW(Range{Start: ShadowStart, End: ShadowEnd})
	if err := m2.Run(); err != nil {
		t.Errorf("auto-mapped shadow write failed: %v", err)
	}
}

// TestFuzzRandomCode executes random byte blobs as code: the machine must
// terminate with an error (bad opcode, fault, CET violation, or step
// limit) without ever panicking. This guards the exec paths against
// malformed-but-decodable instruction shapes.
func TestFuzzRandomCode(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		code := make([]byte, 256)
		r.Read(code)
		m := NewMachine()
		m.MaxSteps = 2000
		m.Mem.Map(0x1000, PageSize, PermR|PermW)
		if err := m.Mem.Write(0x1000, code); err != nil {
			t.Fatal(err)
		}
		m.Mem.Protect(0x1000, PageSize, PermR|PermX)
		m.Mem.Map(0x7FF00000-0x10000, 0x10000, PermR|PermW)
		m.Regs[x86.RSP] = 0x7FF00000 - 64
		m.RIP = 0x1000
		_ = m.Run() // any outcome but a panic is acceptable
	}
}
