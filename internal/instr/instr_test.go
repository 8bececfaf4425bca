package instr_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/instr"
	"repro/internal/mini"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// instrModule exercises every insertion point: function entries
// (endbr64 pads), many basic blocks (loops, if/else, switches), jump
// tables and function-pointer tables (indirect jmp + indirect call),
// recursion (deep call/ret pairing for the shadow stack), and indexed
// memory accesses.
func instrModule() *mini.Module {
	cases := func(base int64, n int) []mini.SwitchCase {
		cs := make([]mini.SwitchCase, n)
		for i := range cs {
			cs[i] = mini.SwitchCase{Val: int64(i), Body: []mini.Stmt{mini.Print{E: mini.Const(base + int64(i))}}}
		}
		return cs
	}
	return &mini.Module{
		Name: "instr",
		Globals: []*mini.Global{
			{Name: "tbl", FuncTable: []string{"inc", "dbl", "neg"}},
			{Name: "arr", Elem: 8, Count: 5, Init: []int64{2, 4, 6, 8, 10}},
		},
		Funcs: []*mini.Func{
			{Name: "inc", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Add, L: mini.Var("p0"), R: mini.Const(1)}}}},
			{Name: "dbl", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Mul, L: mini.Var("p0"), R: mini.Const(2)}}}},
			{Name: "neg", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Sub, L: mini.Const(0), R: mini.Var("p0")}}}},
			{Name: "fib", NParams: 1, Body: []mini.Stmt{
				mini.If{Cond: mini.Bin{Op: mini.Lt, L: mini.Var("p0"), R: mini.Const(2)},
					Then: []mini.Stmt{mini.Return{E: mini.Var("p0")}}},
				mini.Return{E: mini.Bin{Op: mini.Add,
					L: mini.Call{Name: "fib", Args: []mini.Expr{mini.Bin{Op: mini.Sub, L: mini.Var("p0"), R: mini.Const(1)}}},
					R: mini.Call{Name: "fib", Args: []mini.Expr{mini.Bin{Op: mini.Sub, L: mini.Var("p0"), R: mini.Const(2)}}}}},
			}},
			{
				Name:   "main",
				Locals: []string{"i"},
				Body: []mini.Stmt{
					mini.Assign{Name: "i", E: mini.Const(0)},
					mini.While{
						Cond: mini.Bin{Op: mini.Lt, L: mini.Var("i"), R: mini.Const(12)},
						Body: []mini.Stmt{
							mini.Switch{
								E:        mini.Bin{Op: mini.And, L: mini.Var("i"), R: mini.Const(3)},
								Complete: true,
								Cases:    cases(100, 4),
							},
							mini.Print{E: mini.LoadG{G: "arr",
								Idx: mini.Bin{Op: mini.Mod, L: mini.Var("i"), R: mini.Const(5)}}},
							mini.Print{E: mini.CallPtr{Table: "tbl",
								Idx:  mini.Bin{Op: mini.Mod, L: mini.Var("i"), R: mini.Const(3)},
								Args: []mini.Expr{mini.Var("i")}}},
							mini.Assign{Name: "i", E: mini.Bin{Op: mini.Add, L: mini.Var("i"), R: mini.Const(1)}},
						},
					},
					mini.Print{E: mini.Call{Name: "fib", Args: []mini.Expr{mini.Const(10)}}},
					mini.Print{E: mini.ReadInput{}},
					mini.Return{E: mini.Bin{Op: mini.And, L: mini.ReadInput{}, R: mini.Const(0x7f)}},
				},
			},
		},
	}
}

func testInputs() [][]byte {
	mk := func(vals ...int64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		return out
	}
	return [][]byte{mk(5, 9), mk(-3, 200)}
}

// passSets enumerates the standard passes individually plus the
// composed all-passes pipeline.
func passSets(t *testing.T) map[string][]instr.Pass {
	t.Helper()
	sets := make(map[string][]instr.Pass)
	for _, name := range instr.Names() {
		p, err := instr.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = []instr.Pass{p}
	}
	all, err := instr.ParseList("coverage,counters,calltrace,shadowstack")
	if err != nil {
		t.Fatal(err)
	}
	sets["all"] = all
	return sets
}

// runSteps is the retired-instruction count of one emulated run of each
// rewritten binary on testInputs()[0]: "none" is the uninstrumented
// rewrite, the rest are the passSets entries. The counts are
// deterministic, so any change in what a pass inserts on the executed
// path shows here.
var runSteps = map[string]uint64{
	"none":        7136,
	"coverage":    14885,
	"counters":    14024,
	"calltrace":   7256,
	"shadowstack": 13128,
	"all":         27885,
}

// checkRunSteps runs a rewritten binary on testInputs()[0] and compares
// its retired-instruction count against runSteps[name].
func checkRunSteps(t *testing.T, name string, bin []byte) {
	t.Helper()
	want, ok := runSteps[name]
	if !ok {
		t.Fatalf("%s: no pinned step count", name)
	}
	run, err := emu.Run(bin, emu.Options{Input: testInputs()[0]})
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if run.Steps != want {
		t.Errorf("%s: %d retired instructions, want %d", name, run.Steps, want)
	}
}

// TestStandardPassesValidated is the framework's core guarantee: every
// standard pass, and the composed all-passes pipeline, produces a
// binary that passes differential validation with a first-attempt
// "validated" verdict, and the instrumented stream preserves the
// original entries as a subsequence. Each binary's step count on one
// input is pinned in runSteps.
func TestStandardPassesValidated(t *testing.T) {
	bin, err := cc.Compile(instrModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	base, err := core.Rewrite(bin, core.Options{})
	if err != nil {
		t.Fatalf("uninstrumented rewrite: %v", err)
	}
	checkRunSteps(t, "none", base.Binary)

	for name, passes := range passSets(t) {
		t.Run(name, func(t *testing.T) {
			vres, err := core.RewriteValidated(bin, core.ValidateOptions{
				Options: core.Options{Passes: passes},
				Inputs:  testInputs(),
			})
			if err != nil {
				t.Fatalf("RewriteValidated: %v", err)
			}
			if vres.Verdict != core.VerdictValidated || vres.Attempts != 1 {
				t.Fatalf("verdict = %s after %d attempts (%s); want validated on the first",
					vres.Verdict, vres.Attempts, vres.Reason)
			}
			res := vres.Result
			checkRunSteps(t, name, res.Binary)

			// Superset invariant: the original (non-synthesized) entries
			// survive in order — passes insert, never reorder or delete.
			var origBase, origInstr []serialize.Entry
			for _, e := range base.SPrime {
				if !e.Synth {
					origBase = append(origBase, e)
				}
			}
			for _, e := range res.SPrime {
				if !e.Synth {
					origInstr = append(origInstr, e)
				}
			}
			if len(origBase) != len(origInstr) {
				t.Fatalf("original entries: %d before, %d after instrumentation", len(origBase), len(origInstr))
			}
			for i := range origBase {
				if origBase[i].Inst.String() != origInstr[i].Inst.String() {
					t.Fatalf("original entry %d changed: %s -> %s",
						i, origBase[i].Inst, origInstr[i].Inst)
				}
			}

			// Marks/stats bookkeeping.
			if len(res.InstrMarks) != len(res.SPrime) {
				t.Fatalf("InstrMarks length %d, SPrime length %d", len(res.InstrMarks), len(res.SPrime))
			}
			marked := 0
			for _, m := range res.InstrMarks {
				if m {
					marked++
				}
			}
			if marked != res.Stats.InstrInserted || marked == 0 {
				t.Fatalf("marked %d entries, Stats.InstrInserted %d", marked, res.Stats.InstrInserted)
			}
			if res.Stats.InstrPasses != len(passes) {
				t.Fatalf("Stats.InstrPasses = %d, want %d", res.Stats.InstrPasses, len(passes))
			}

			// Layout invariants: passes with payload get a writable
			// .suri.instr region, page-separate from code and rodata.
			if res.Stats.InstrPayloadBytes > 0 {
				lo := res.Layout
				if lo.InstrAddr == 0 || lo.InstrSize < uint64(res.Stats.InstrPayloadBytes) {
					t.Fatalf("payload %d bytes but layout has addr=%#x size=%d",
						res.Stats.InstrPayloadBytes, lo.InstrAddr, lo.InstrSize)
				}
				if lo.InstrAddr < lo.NewTextAddr+lo.NewTextSize {
					t.Fatalf("instr region %#x overlaps new text %#x+%#x",
						lo.InstrAddr, lo.NewTextAddr, lo.NewTextSize)
				}
				f, err := elfx.Read(res.Binary)
				if err != nil {
					t.Fatal(err)
				}
				sec := f.Section(".suri.instr")
				if sec == nil {
					t.Fatal("rewritten binary has no .suri.instr section")
				}
				if sec.Flags&elfx.SHFWrite == 0 || sec.Flags&elfx.SHFExecinstr != 0 {
					t.Fatalf(".suri.instr flags = %#x; want writable, non-exec", sec.Flags)
				}
			}

			// CET invariant: a labeled endbr64 landing pad keeps its labels
			// — nothing may slip between an indirect-branch target label
			// and its pad, so the framework must not move those labels.
			for i := range origBase {
				if origBase[i].Inst.Op == x86.ENDBR64 && origBase[i].Label != 0 &&
					origInstr[i].Label == 0 {
					t.Fatalf("labels moved off endbr64 landing pad (entry %d)", i)
				}
			}
		})
	}
}

// TestConfigSampleComposed runs the composed all-passes pipeline over a
// sample of the 48 build configurations.
func TestConfigSampleComposed(t *testing.T) {
	configs := cc.AllConfigs()
	for i := 0; i < len(configs); i += 7 {
		ccfg := configs[i]
		t.Run(ccfg.String(), func(t *testing.T) {
			bin, err := cc.Compile(instrModule(), ccfg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			passes, err := instr.ParseList("coverage,counters,calltrace,shadowstack")
			if err != nil {
				t.Fatal(err)
			}
			vres, err := core.RewriteValidated(bin, core.ValidateOptions{
				Options: core.Options{Passes: passes},
				Inputs:  testInputs(),
			})
			if err != nil {
				t.Fatalf("RewriteValidated: %v", err)
			}
			if vres.Verdict != core.VerdictValidated || vres.Attempts != 1 {
				t.Fatalf("verdict = %s after %d attempts (%s)",
					vres.Verdict, vres.Attempts, vres.Reason)
			}
		})
	}
}

// TestCoverageArtifact runs an instrumented binary in the emulator and
// checks the payload region holds a non-empty coverage bitmap and
// plausible hit counters — the surirun -cov path end to end.
func TestCoverageArtifact(t *testing.T) {
	bin, err := cc.Compile(instrModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes, err := instr.ParseList("coverage,counters")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Rewrite(bin, core.Options{Passes: passes})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if res.Layout.InstrSize == 0 {
		t.Fatal("no instrumentation payload emitted")
	}
	run, err := emu.Run(res.Binary, emu.Options{
		Input:   testInputs()[0],
		Capture: emu.Range{Start: res.Layout.InstrAddr, End: res.Layout.InstrAddr + res.Layout.InstrSize},
	})
	if err != nil {
		t.Fatalf("emulated run: %v", err)
	}
	if len(run.Captured) != int(res.Layout.InstrSize) {
		t.Fatalf("captured %d bytes, want %d", len(run.Captured), res.Layout.InstrSize)
	}
	nonzero := 0
	for _, b := range run.Captured {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("coverage payload is all zeros after a run")
	}
}

// TestShadowStackCleanRun checks the return-address checker stays
// silent on well-behaved code: a normal run never reaches the "=SS="
// reporter or its exit status.
func TestShadowStackCleanRun(t *testing.T) {
	bin, err := cc.Compile(instrModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := instr.New("shadowstack")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Rewrite(bin, core.Options{Passes: []instr.Pass{p}})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	run, err := emu.Run(res.Binary, emu.Options{Input: testInputs()[0]})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if bytes.Contains(run.Stderr, []byte("=SS=")) {
		t.Fatalf("clean run reported a shadow-stack violation: %q", run.Stderr)
	}
	if run.Exit == 135 {
		t.Fatal("clean run exited with the shadow-stack failure status")
	}
}

// TestConcurrentInstrumented runs concurrent instrumented rewrites of
// one binary — the farm's pattern for serving ?instrument= requests of a
// hot binary — and checks each against the sequential result. Run under
// -race this proves pass application is data-race free.
func TestConcurrentInstrumented(t *testing.T) {
	bin, err := cc.Compile(instrModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := core.Rewrite(bin, core.Options{Passes: mustParse(t, "coverage,shadowstack")})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.Rewrite(bin, core.Options{Passes: mustParse(t, "coverage,shadowstack")})
			if err != nil {
				t.Errorf("concurrent instrumented rewrite: %v", err)
				return
			}
			if !bytes.Equal(res.Binary, want.Binary) {
				t.Error("concurrent instrumented rewrite diverged from sequential result")
			}
		}()
	}
	wg.Wait()
}

func mustParse(t *testing.T, list string) []instr.Pass {
	t.Helper()
	passes, err := instr.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	return passes
}

// TestParseList covers the registry surface.
func TestParseList(t *testing.T) {
	if _, err := instr.ParseList("coverage,nosuch"); err == nil {
		t.Error("unknown pass accepted")
	}
	if _, err := instr.ParseList("coverage,coverage"); err == nil {
		t.Error("duplicate pass accepted")
	}
	ps, err := instr.ParseList(" coverage , shadowstack ")
	if err != nil || len(ps) != 2 {
		t.Errorf("ParseList with spaces: %v, %d passes", err, len(ps))
	}
	if ps, err := instr.ParseList(""); err != nil || ps != nil {
		t.Errorf("empty list: %v, %v", err, ps)
	}
	fp, ok := instr.FingerprintList(mustParse(t, "coverage,counters"))
	if !ok || fp == "" {
		t.Errorf("standard passes must be fingerprintable (got %q, %v)", fp, ok)
	}
}
