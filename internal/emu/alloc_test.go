package emu_test

import (
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/prog"
)

// encodeInput packs a program's input values the way its read loop
// consumes them: little-endian 64-bit words.
func encodeInput(vals []int64) []byte {
	input := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		for b := 0; b < 8; b++ {
			input = append(input, byte(uint64(v)>>(8*b)))
		}
	}
	return input
}

// runAllocCeiling is the per-run byte ceiling of TestTieredRunAllocs.
// A run allocates its mapped ELF segments, the stack and TLS pages it
// touches, its output, and (amortized over the three runs) the decode
// planes and translations of the code it executes: ~212 KB on the
// gated program, about 1.1x under the ceiling. Each regression the gate
// exists for breaks it (figures measured with a 56-byte x86.Inst, ~20 KB
// per run above today's):
//   - an eagerly mapped 1 MiB stack: ~1.5 MB per run;
//   - an x86.Inst carried in every translated op's metadata: ~300 KB;
//   - 512-entry decode-plane chunks: ~305 KB.
//
// It also caught an interpreter that took its operands by pointer and
// let the instruction escape to the heap on every step: ~283 KB.
const runAllocCeiling = 233 << 10

// TestTieredRunAllocs gates an emulator run's allocation: one corpus
// binary runs on the tiered engine over three inputs, reloaded between
// runs the way validated rewrites reuse a machine, and the bytes
// allocated per run (load and first-run decode and translation
// included) must stay under runAllocCeiling.
func TestTieredRunAllocs(t *testing.T) {
	var p *prog.Program
	for _, s := range prog.Suites(0.01) {
		for _, sp := range s.Programs {
			if len(sp.Inputs) >= 3 {
				p = sp
				break
			}
		}
		if p != nil {
			break
		}
	}
	if p == nil {
		t.Fatal("no corpus program with three inputs")
	}
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 3)
	for i := range inputs {
		inputs[i] = encodeInput(p.Inputs[i])
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var m *emu.Machine
	for i, in := range inputs {
		opts := emu.Options{Input: in, Engine: emu.EngineTiered}
		if m == nil {
			m, err = emu.LoadFile(f, opts)
		} else {
			err = emu.Reload(m, f, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s input %d: %v", p.Name, i, err)
		}
	}
	runtime.ReadMemStats(&after)

	if s := m.TierStats(); s == nil || s.TierSteps == 0 {
		t.Fatal("no run executed translated code; the gate would measure the interpreter")
	}
	perRun := (after.TotalAlloc - before.TotalAlloc) / uint64(len(inputs))
	t.Logf("%s: %d bytes per run", p.Name, perRun)
	if perRun > runAllocCeiling {
		t.Errorf("%s: %d bytes allocated per run, ceiling %d", p.Name, perRun, runAllocCeiling)
	}
}
