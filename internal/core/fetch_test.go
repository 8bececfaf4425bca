package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/x86"
)

// TestFetchMatchesDecodeAcrossSuites is the emulator's fetch oracle:
// across generated programs from every benchmark suite, both the
// original and the rewritten binary run under the interpreter, and at
// every executed address the machine's fetch path (page plane, or the
// ranged slow path) must return exactly what a raw x86.Decode of the
// mapped bytes returns — same instruction, size and error.
func TestFetchMatchesDecodeAcrossSuites(t *testing.T) {
	for _, suite := range prog.Suites(0.02) {
		for pi, p := range suite.Programs {
			if pi >= 2 {
				break
			}
			p := p
			t.Run(fmt.Sprintf("%s/%s", suite.Name, p.Name), func(t *testing.T) {
				bin, err := cc.Compile(p.Module, cc.DefaultConfig())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				res, err := Rewrite(bin, Options{})
				if err != nil {
					t.Fatalf("Rewrite: %v", err)
				}
				var input []byte
				if len(p.Inputs) > 0 {
					input = inputBytes(p.Inputs[0])
				}
				for _, image := range []struct {
					name string
					bin  []byte
				}{{"original", bin}, {"rewritten", res.Binary}} {
					m, err := emu.Load(image.bin, emu.Options{Input: input, Engine: emu.EngineInterpreter})
					if err != nil {
						t.Fatalf("%s: load: %v", image.name, err)
					}
					executed := make(map[uint64]bool)
					m.TraceFn = func(rip uint64) { executed[rip] = true }
					if err := m.Run(); err != nil {
						t.Fatalf("%s: run: %v", image.name, err)
					}
					if len(executed) == 0 {
						t.Fatalf("%s: no instruction executed", image.name)
					}
					for addr := range executed {
						var buf [15]byte
						n := m.Mem.FetchSpan(addr, buf[:])
						wantIn, wantN, wantErr := x86.Decode(buf[:n])
						in, size, err := m.FetchInst(addr)
						if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
							t.Fatalf("%s at %#x: fetch error %v, raw decode %v", image.name, addr, err, wantErr)
						}
						if in != wantIn || size != wantN {
							t.Fatalf("%s at %#x: fetched %+v (%d bytes), raw decode %+v (%d bytes)",
								image.name, addr, in, size, wantIn, wantN)
						}
					}
				}
			})
		}
	}
}

// TestValidatedRewriteMachineReuse exercises the validator's machine
// reuse (Reload across inputs and attempts) against a multi-input
// program: verdicts and outputs must be unaffected by plane carry-over,
// so the validated binary is the plain rewrite's.
func TestValidatedRewriteMachineReuse(t *testing.T) {
	bin, err := cc.Compile(trapModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inputs := [][]byte{nil, inputBytes([]int64{1, 2, 3}), inputBytes([]int64{9, 8, 7})}
	res, err := RewriteValidated(bin, ValidateOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictValidated {
		t.Fatalf("verdict = %s (%s), want validated", res.Verdict, res.Reason)
	}
	plain, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Binary, plain.Binary) {
		t.Error("validated binary differs from the plain rewrite")
	}
}
