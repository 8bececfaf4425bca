package emu_test

import (
	"errors"
	"testing"

	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/gen"
	"repro/internal/prog"
	"repro/internal/x86"
)

// The loader registers the stack and the TLS area as demand-zero
// ranges: a page is mapped read-write, zero-filled, on its first data
// access. These tests pin that this is unobservable to the program —
// every probe behaves exactly as on the eagerly mapped reference
// layout, on both engines — and that only touched pages get mapped.

// snippetBase is where the probes' code is mapped, clear of the image
// (DefaultBias), the TLS area, and the stack.
const snippetBase = 0x5000_0000

// tlsAreaSize mirrors the loader's TLS area: [FSBase-tlsAreaSize,
// FSBase+PageSize), the block below the thread pointer plus the page
// holding the TCB self-pointer.
const tlsAreaSize = 0x1_0000

// tlsBin compiles a program with a PT_TLS segment, so the loader sets
// up the TLS area as well as the stack. It returns the parsed file and
// the TLS block size.
func tlsBin(t *testing.T) (*elfx.File, uint64) {
	t.Helper()
	p := gen.Generate("dz", 1, prog.Shapes["small"], gen.Features{TLS: true})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range f.Segments {
		if seg.Type == elfx.PTTLS {
			return f, seg.Memsz
		}
	}
	t.Fatal("generated program has no PT_TLS segment")
	return nil, 0
}

// absMem is an absolute [disp32] memory operand.
func absMem(addr uint64) x86.Mem {
	return x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Disp: int32(addr)}
}

// exitInsts ends a probe with exit(0).
var exitInsts = []x86.Inst{
	{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},
	{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
	{Op: x86.SYSCALL},
}

// loadProbe loads f, maps code as a probe at snippetBase and points RIP
// at it. With eager set, the stack and TLS area are also mapped up
// front, which is the reference layout the demand-zero ranges must be
// indistinguishable from. A heat seed over the probe page makes the
// tiered engine translate the probe on first arrival, so its loads and
// stores run through the translated data path.
func loadProbe(t *testing.T, f *elfx.File, code []byte, engine emu.EngineKind, eager bool) *emu.Machine {
	t.Helper()
	m, err := emu.LoadFile(f, emu.Options{Engine: engine, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if eager {
		m.Mem.Map(emu.DefaultStackTop-emu.DefaultStackSize, emu.DefaultStackSize, emu.PermR|emu.PermW)
		m.Mem.Map(m.FSBase-tlsAreaSize, tlsAreaSize+emu.PageSize, emu.PermR|emu.PermW)
	}
	m.Mem.Map(snippetBase, emu.PageSize, emu.PermR|emu.PermW)
	if err := m.Mem.Write(snippetBase, code); err != nil {
		t.Fatal(err)
	}
	m.Mem.Protect(snippetBase, emu.PageSize, emu.PermR|emu.PermX)
	m.RIP = snippetBase
	seed := make(map[uint64]uint64)
	for a := uint64(snippetBase); a < snippetBase+uint64(len(code)); a++ {
		seed[a] = 8
	}
	m.SetHeatSeed(seed)
	return m
}

// runProbe runs code on the interpreter, on the tiered engine, and on
// the interpreter over the eager reference layout; all three must end
// in the same observable state. It returns the tiered machine and its
// run error.
func runProbe(t *testing.T, label string, f *elfx.File, insts []x86.Inst) (*emu.Machine, error) {
	t.Helper()
	code := asm(t, insts)
	ref := loadProbe(t, f, code, emu.EngineInterpreter, true)
	want := snapshot(ref, ref.Run())
	mi := loadProbe(t, f, code, emu.EngineInterpreter, false)
	if got := snapshot(mi, mi.Run()); got != want {
		t.Errorf("%s: interpreter diverged from the eager layout:\n  eager:       %+v\n  demand-zero: %+v", label, want, got)
	}
	mt := loadProbe(t, f, code, emu.EngineTiered, false)
	err := mt.Run()
	if got := snapshot(mt, err); got != want {
		t.Errorf("%s: tiered engine diverged from the eager layout:\n  eager:       %+v\n  demand-zero: %+v", label, want, got)
	}
	return mt, err
}

// wantFault checks that err wraps a *emu.Fault at addr of the given kind.
func wantFault(t *testing.T, label string, err error, addr uint64, kind string) {
	t.Helper()
	var flt *emu.Fault
	if !errors.As(err, &flt) {
		t.Errorf("%s: err = %v, want a %s fault at %#x", label, err, kind, addr)
		return
	}
	if flt.Addr != addr || flt.Kind != kind {
		t.Errorf("%s: fault %s at %#x, want %s at %#x", label, flt.Kind, flt.Addr, kind, addr)
	}
}

// pagesIn returns the mapped ranges of m that intersect [lo, hi).
func pagesIn(m *emu.Machine, lo, hi uint64) []emu.Range {
	var out []emu.Range
	for _, r := range m.Mem.MappedRanges() {
		if r.End > lo && r.Start < hi {
			out = append(out, r)
		}
	}
	return out
}

func TestDemandZeroStack(t *testing.T) {
	f, tlsSize := tlsBin(t)
	probe, err := emu.LoadFile(f, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := probe.FSBase
	if tp == 0 {
		t.Fatal("loader set no thread pointer")
	}
	regions := []struct {
		name    string
		lo, end uint64
	}{
		{"stack", emu.DefaultStackTop - emu.DefaultStackSize, emu.DefaultStackTop},
		{"tls", tp - tlsAreaSize, tp + emu.PageSize},
	}

	// A fresh load maps no stack page at all, and of the TLS area only
	// the pages the loader wrote (the .tdata image and the TCB).
	if got := pagesIn(probe, regions[0].lo, regions[0].end); len(got) != 0 {
		t.Errorf("fresh load mapped stack pages %+v", got)
	}
	written := (tp - tlsSize) &^ (emu.PageSize - 1)
	for _, r := range pagesIn(probe, regions[1].lo, regions[1].end) {
		if r.Start < written {
			t.Errorf("fresh load mapped TLS pages %+v below the loader's writes at %#x", r, written)
		}
	}

	for _, rg := range regions {
		lo, end := rg.lo, rg.end

		// An untouched page reads as zero; the lowest byte is writable.
		m, err := runProbe(t, rg.name+"/zero-and-low", f, append([]x86.Inst{
			{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: absMem(lo + 0x800).Arg()},
			{Op: x86.MOV, W: 1, Dst: absMem(lo).Arg(), Src: x86.Imm(0x5a).Arg()},
			{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: absMem(lo).Arg()},
			{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: absMem(end - 8).Arg()},
		}, exitInsts...))
		if err != nil {
			t.Fatalf("%s: %v", rg.name, err)
		}
		if s := m.TierStats(); s == nil || s.TierSteps == 0 {
			t.Errorf("%s: the probe never ran translated code", rg.name)
		}
		if m.Regs[x86.RBX] != 0 || m.Regs[x86.RDX] != 0 || m.Regs[x86.RSI] != 0x5a {
			t.Errorf("%s: untouched reads %#x %#x, low byte %#x; want 0, 0 and 0x5a",
				rg.name, m.Regs[x86.RBX], m.Regs[x86.RDX], m.Regs[x86.RSI])
		}
		if rg.name == "stack" {
			// Only the two touched stack pages are mapped.
			want := []emu.Range{{Start: lo, End: lo + emu.PageSize}, {Start: end - emu.PageSize, End: end}}
			got := pagesIn(m, lo, end)
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Errorf("stack: mapped %+v, want only the touched pages %+v", got, want)
			}
		}

		// One byte below the range, and the first byte past it, fault
		// at that byte: reads and writes alike.
		_, err = runProbe(t, rg.name+"/below-write", f, []x86.Inst{
			{Op: x86.MOV, W: 1, Dst: absMem(lo - 1).Arg(), Src: x86.Imm(1).Arg()},
		})
		wantFault(t, rg.name+"/below-write", err, lo-1, "write")
		_, err = runProbe(t, rg.name+"/below-read", f, []x86.Inst{
			{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: absMem(lo - 1).Arg()},
		})
		wantFault(t, rg.name+"/below-read", err, lo-1, "read")
		_, err = runProbe(t, rg.name+"/above-write", f, []x86.Inst{
			{Op: x86.MOV, W: 1, Dst: absMem(end).Arg(), Src: x86.Imm(1).Arg()},
		})
		wantFault(t, rg.name+"/above-write", err, end, "write")

		// Jumping into the range faults "exec", whether or not the
		// target page has been touched.
		for _, touch := range []bool{false, true} {
			target := lo + 0x100
			var insts []x86.Inst
			if touch {
				insts = append(insts, x86.Inst{Op: x86.MOV, W: 1, Dst: absMem(target).Arg(), Src: x86.Imm(0xc3).Arg()})
			}
			insts = append(insts,
				x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(int64(target)).Arg()},
				x86.Inst{Op: x86.JMP, Src: x86.RAX.Arg(), NoTrack: true},
			)
			_, err = runProbe(t, rg.name+"/exec", f, insts)
			wantFault(t, rg.name+"/exec", err, target, "exec")
		}
	}
}

// TestWriteFaultLeavesOutput drives the write syscall with buffers
// that cross from the top stack page into the unmapped page above it.
// The fault must leave Stdout/Stderr exactly as they were (the bytes
// read before the fault are dropped), with identical errors on both
// engines; an unknown fd still faults before it reports -EBADF.
func TestWriteFaultLeavesOutput(t *testing.T) {
	f, _ := tlsBin(t)
	top := uint64(emu.DefaultStackTop)
	write := func(fd int64, buf uint64, n int64) []x86.Inst {
		return []x86.Inst{
			{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(fd).Arg()},
			{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(int64(buf)).Arg()},
			{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(n).Arg()},
			{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(1).Arg()},
			{Op: x86.SYSCALL},
		}
	}
	// Four bytes "ok!\n" just below the top of the stack.
	msg := top - 16
	prologue := []x86.Inst{
		{Op: x86.MOV, W: 4, Dst: absMem(msg).Arg(), Src: x86.Imm(0x0a216b6f).Arg()},
	}
	prologue = append(prologue, write(1, msg, 4)...)
	prologue = append(prologue, write(2, msg, 4)...)

	for _, tc := range []struct {
		name  string
		fd    int64
		fault bool
	}{
		{"stdout", 1, true},
		{"stderr", 2, true},
		{"badfd", 7, true},
		{"badfd-mapped", 7, false},
	} {
		n := int64(8)
		if tc.fault {
			n = 32 // crosses DefaultStackTop
		}
		insts := append(append([]x86.Inst(nil), prologue...), write(tc.fd, msg, n)...)
		insts = append(insts, x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.RAX.Arg()})
		insts = append(insts, exitInsts...)
		m, err := runProbe(t, "write/"+tc.name, f, insts)
		if string(m.Stdout) != "ok!\n" || string(m.Stderr) != "ok!\n" {
			t.Errorf("%s: stdout %q stderr %q, want both \"ok!\\n\"", tc.name, m.Stdout, m.Stderr)
		}
		if tc.fault {
			wantFault(t, tc.name, err, top, "read")
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ret := m.Regs[x86.RBX]; ret != ^uint64(8) {
			t.Errorf("%s: write returned %#x, want -EBADF", tc.name, ret)
		}
	}
}
