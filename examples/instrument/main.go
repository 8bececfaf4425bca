// Instrumentation example: use SURI's S'-level hook (§3.1 step 4) to add
// a startup banner and a per-call tracing counter to an existing binary —
// the "effortless addition of instrumentation" that motivates reassembly.
//
// The pass inserts, before every CALL in the copied code, an increment of
// a counter kept in scratch memory, and prints the banner at the entry
// point. No original instruction is modified; the pipeline re-symbolizes
// everything around the insertions.
//
// Run with: go run ./examples/instrument
package main

import (
	"fmt"
	"log"

	suri "repro"
	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/mini"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// counterAddr is scratch memory inside the emulator's on-demand shadow
// region: always mapped, never used by the program itself.
const counterAddr = 0x7800_0000

func main() {
	mod := &mini.Module{
		Name: "traced",
		Funcs: []*mini.Func{
			{Name: "work", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Add, L: mini.Var("p0"), R: mini.Const(1)}}}},
			{
				Name:   "main",
				Locals: []string{"i", "acc"},
				Body: []mini.Stmt{
					mini.Assign{Name: "i", E: mini.Const(0)},
					mini.Assign{Name: "acc", E: mini.Const(0)},
					mini.While{
						Cond: mini.Bin{Op: mini.Lt, L: mini.Var("i"), R: mini.Const(5)},
						Body: []mini.Stmt{
							mini.Assign{Name: "acc", E: mini.Call{Name: "work", Args: []mini.Expr{mini.Var("acc")}}},
							mini.Assign{Name: "i", E: mini.Bin{Op: mini.Add, L: mini.Var("i"), R: mini.Const(1)}},
						},
					},
					mini.Print{E: mini.Var("acc")},
				},
			},
		},
	}
	bin, err := cc.Compile(mod, cc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	calls := 0
	instrument := func(entries []suri.Entry, syms *suri.Symtab) ([]suri.Entry, error) {
		var out []suri.Entry
		for _, e := range entries {
			if !e.Synth && e.Inst.Op == x86.CALL {
				// inc qword [counterAddr] — flags are dead before calls
				// in compiler-generated code; a production pass would
				// save them.
				// The counter runs first: the call's labels move onto it.
				out = append(out, suri.Entry{
					Ins: asm.Ins{Inst: x86.Inst{Op: x86.ADD, W: 8,
						Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Disp: counterAddr}.Arg(),
						Src: x86.Imm(1).Arg()}},
					Synth: true,
				})
				serialize.MoveLabels(syms, &out[len(out)-1], &e)
				calls++
			}
			out = append(out, e)
		}
		return out, nil
	}

	res, err := suri.Rewrite(bin, suri.Options{Instrument: instrument})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instrumented %d call sites\n", calls)

	// Run and read the counter back out of machine memory.
	m, err := emu.Load(res.Binary, emu.Options{Shadow: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	count, err := m.Mem.ReadU64(counterAddr, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output: %q\n", m.Stdout)
	fmt.Printf("dynamic calls observed by instrumentation: %d\n", count)

	// Compare against the uninstrumented run.
	orig, err := emu.Run(bin, emu.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if string(orig.Stdout) != string(m.Stdout) {
		log.Fatal("instrumentation changed program behaviour!")
	}
	fmt.Printf("behaviour unchanged; instruction overhead: %d -> %d (+%.1f%%)\n",
		orig.Steps, m.Steps, 100*float64(m.Steps-orig.Steps)/float64(orig.Steps))
}
