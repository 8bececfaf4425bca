package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/mini"
	"repro/internal/serialize"
	"repro/internal/x86"
)

func inputBytes(vals []int64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// trapModule exercises every hard symbolization pattern: dense masked
// switches (bounds-check-free jump tables), decoy data adjacent to
// tables (Fig. 3), function-pointer tables and direct function refs
// (S1/S6), past-the-end static pointers (S2), composite cross-section
// accesses at O2+ (S7, Figs. 1-2), and recursion.
func trapModule() *mini.Module {
	cases := func(base int64, n int) []mini.SwitchCase {
		cs := make([]mini.SwitchCase, n)
		for i := range cs {
			cs[i] = mini.SwitchCase{Val: int64(i), Body: []mini.Stmt{mini.Print{E: mini.Const(base + int64(i))}}}
		}
		return cs
	}
	return &mini.Module{
		Name: "traps",
		Globals: []*mini.Global{
			{Name: "tbl", FuncTable: []string{"inc", "tri", "neg"}},
			{Name: "decoys", Elem: 4, Count: 6, Init: []int64{-48, -24, -12, -100, 60, 8}, ReadOnly: true},
			{Name: "arr", Elem: 8, Count: 5, Init: []int64{2, 4, 6, 8, 10}},
			{Name: "past", PtrInit: &mini.PtrInit{Target: "arr", ByteOff: 24}},
			{Name: "zeros", Elem: 8, Count: 6},
			{Name: "bytes", Elem: 1, Count: 16, Init: []int64{9, 8, 7}},
		},
		Funcs: []*mini.Func{
			{Name: "inc", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Add, L: mini.Var("p0"), R: mini.Const(1)}}}},
			{Name: "tri", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Mul, L: mini.Var("p0"), R: mini.Const(3)}}}},
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
				Locals: []string{"i", "fp"},
				Body: []mini.Stmt{
					mini.Assign{Name: "i", E: mini.Const(0)},
					mini.While{
						Cond: mini.Bin{Op: mini.Lt, L: mini.Var("i"), R: mini.Const(24)},
						Body: []mini.Stmt{
							mini.Switch{
								E:        mini.Bin{Op: mini.And, L: mini.Var("i"), R: mini.Const(7)},
								Complete: true,
								Cases:    cases(100, 8),
							},
							mini.Switch{
								E:     mini.Bin{Op: mini.Mod, L: mini.Var("i"), R: mini.Const(5)},
								Cases: cases(200, 5),
								Default: []mini.Stmt{
									mini.Print{E: mini.Const(-5)},
								},
							},
							mini.Print{E: mini.LoadG{G: "decoys",
								Idx: mini.Bin{Op: mini.Mod, L: mini.Var("i"), R: mini.Const(6)}}},
							mini.StoreG{G: "zeros",
								Idx: mini.Bin{Op: mini.And, L: mini.Var("i"), R: mini.Const(3)},
								E:   mini.Bin{Op: mini.Mul, L: mini.Var("i"), R: mini.Var("i")}},
							mini.Print{E: mini.LoadG{G: "zeros", Idx: mini.Const(1)}},
							mini.Print{E: mini.LoadG{G: "bytes",
								Idx: mini.Bin{Op: mini.And, L: mini.Var("i"), R: mini.Const(7)}}},
							mini.Print{E: mini.CallPtr{Table: "tbl",
								Idx:  mini.Bin{Op: mini.Mod, L: mini.Var("i"), R: mini.Const(3)},
								Args: []mini.Expr{mini.Var("i")}}},
							mini.Assign{Name: "i", E: mini.Bin{Op: mini.Add, L: mini.Var("i"), R: mini.Const(1)}},
						},
					},
					mini.Print{E: mini.LoadP{P: "past", Idx: mini.Const(-1)}},
					mini.Print{E: mini.LoadP{P: "past", Idx: mini.Const(-3)}},
					mini.Assign{Name: "fp", E: mini.FuncRef{Name: "tri"}},
					mini.Print{E: mini.CallVal{F: mini.Var("fp"), Args: []mini.Expr{mini.Const(7)}}},
					mini.Print{E: mini.Call{Name: "fib", Args: []mini.Expr{mini.Const(12)}}},
					mini.Print{E: mini.ReadInput{}},
					mini.Return{E: mini.Bin{Op: mini.And, L: mini.ReadInput{}, R: mini.Const(0x7f)}},
				},
			},
		},
	}
}

// rewriteAndCompare compiles the module, rewrites it, and requires the
// rewritten binary to reproduce the original's behaviour exactly on the
// given inputs.
func rewriteAndCompare(t *testing.T, m *mini.Module, ccfg cc.Config, opts Options, inputs [][]int64) *Result {
	t.Helper()
	bin, err := cc.Compile(m, ccfg)
	if err != nil {
		t.Fatalf("compile (%s): %v", ccfg, err)
	}
	res, err := Rewrite(bin, opts)
	if err != nil {
		t.Fatalf("rewrite (%s): %v", ccfg, err)
	}
	for _, in := range inputs {
		orig, err := emu.Run(bin, emu.Options{Input: inputBytes(in)})
		if err != nil {
			t.Fatalf("original run (%s): %v", ccfg, err)
		}
		got, err := emu.Run(res.Binary, emu.Options{Input: inputBytes(in)})
		if err != nil {
			t.Fatalf("rewritten run (%s): %v\noriginal stdout: %q\nrewritten stdout so far: %q",
				ccfg, err, orig.Stdout, got.Stdout)
		}
		if !bytes.Equal(got.Stdout, orig.Stdout) || got.Exit != orig.Exit {
			t.Fatalf("behaviour diverged (%s):\noriginal:  %q exit %d\nrewritten: %q exit %d",
				ccfg, orig.Stdout, orig.Exit, got.Stdout, got.Exit)
		}
	}
	return res
}

func TestRewriteHello(t *testing.T) {
	m := &mini.Module{
		Name: "hello",
		Funcs: []*mini.Func{{
			Name: "main",
			Body: []mini.Stmt{mini.Print{E: mini.Const(42)}, mini.Return{E: mini.Const(7)}},
		}},
	}
	res := rewriteAndCompare(t, m, cc.DefaultConfig(), Options{}, [][]int64{nil})
	if res.Stats.CopiedInstructions == 0 {
		t.Error("no instructions copied")
	}
}

func TestRewriteTrapsAllConfigs(t *testing.T) {
	m := trapModule()
	inputs := [][]int64{{11, 3}, {-9, 200}}
	for _, ccfg := range cc.AllConfigs() {
		ccfg := ccfg
		t.Run(ccfg.String(), func(t *testing.T) {
			res := rewriteAndCompare(t, m, ccfg, Options{}, inputs)
			if ccfg.Opt != cc.O0 && res.Stats.Tables == 0 {
				t.Error("expected jump tables at -O1+")
			}
		})
	}
}

func TestRewriteNoEhFrame(t *testing.T) {
	m := trapModule()
	ccfg := cc.DefaultConfig()
	ccfg.EhFrame = false
	rewriteAndCompare(t, m, ccfg, Options{IgnoreEhFrame: true}, [][]int64{{5, 6}})
	// And a build WITH eh_frame rewritten while ignoring it (§4.3.3).
	rewriteAndCompare(t, m, cc.DefaultConfig(), Options{IgnoreEhFrame: true}, [][]int64{{5, 6}})
}

func TestRewriteLayoutPreservation(t *testing.T) {
	m := trapModule()
	bin, err := cc.Compile(m, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := elfx.Read(bin)
	got, err := elfx.Read(res.Binary)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range orig.Sections {
		if s.Flags&elfx.SHFAlloc == 0 {
			continue
		}
		ns := got.Section(s.Name)
		if ns == nil {
			t.Errorf("section %s missing from rewritten binary", s.Name)
			continue
		}
		if ns.Addr != s.Addr || ns.Size != s.Size {
			t.Errorf("section %s moved: %#x+%#x -> %#x+%#x", s.Name, s.Addr, s.Size, ns.Addr, ns.Size)
		}
		if s.Flags&elfx.SHFExecinstr != 0 && ns.Flags&elfx.SHFExecinstr != 0 {
			t.Errorf("original code section %s still executable", s.Name)
		}
		// Original code/data bytes are preserved verbatim (except the
		// retargeted relocation entries).
		if s.Type != elfx.SHTNobits && s.Name != ".rela.dyn" && !bytes.Equal(s.Data, ns.Data) {
			t.Errorf("section %s content changed", s.Name)
		}
	}
	if got.Entry == orig.Entry {
		t.Error("entry point not moved to copied code")
	}
	if got.Section(".suri.text") == nil || got.Section(".suri.rodata") == nil {
		t.Error("new sections missing")
	}
	if res.Stats.AdjustedRelas == 0 {
		t.Error("no relocations adjusted (function table should need it)")
	}
}

func TestRewrittenStillCET(t *testing.T) {
	// The rewritten binary must still satisfy IBT+SHSTK under
	// enforcement (invariant 6) — emu.Run enforces when the note is set.
	m := trapModule()
	bin, _ := cc.Compile(m, cc.DefaultConfig())
	res, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := elfx.Read(res.Binary)
	if !f.HasCET() {
		t.Fatal("rewritten binary lost its CET note")
	}
	machine, err := emu.Load(res.Binary, emu.Options{Input: inputBytes([]int64{1, 2})})
	if err != nil {
		t.Fatal(err)
	}
	if !machine.EnforceCET {
		t.Fatal("CET not enforced on rewritten binary")
	}
	if err := machine.Run(); err != nil {
		t.Fatalf("rewritten binary violates CET: %v", err)
	}
}

func TestRewriteBiasIndependence(t *testing.T) {
	m := trapModule()
	bin, _ := cc.Compile(m, cc.DefaultConfig())
	res, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := inputBytes([]int64{4, 5})
	a, err := emu.Run(res.Binary, emu.Options{Bias: 0x1000_0000, Input: in})
	if err != nil {
		t.Fatal(err)
	}
	b, err := emu.Run(res.Binary, emu.Options{Bias: 0x3456_0000, Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Stdout, b.Stdout) || a.Exit != b.Exit {
		t.Error("rewritten binary is bias-dependent")
	}
}

func TestRewriteRejectsNonCET(t *testing.T) {
	ccfg := cc.DefaultConfig()
	ccfg.CET = false
	bin, err := cc.Compile(trapModule(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rewrite(bin, Options{}); !errors.Is(err, ErrNotCETPIE) {
		t.Errorf("non-CET binary accepted: %v", err)
	}
	if _, err := Rewrite(bin, Options{AllowNonCET: true}); err != nil {
		t.Errorf("AllowNonCET rewrite failed: %v", err)
	}
}

func TestRewriteWithNopInstrumentation(t *testing.T) {
	// §4.3: no-op instrumentation — insert a NOP before every copied
	// instruction; behaviour must be identical, instruction count higher.
	m := trapModule()
	// Never insert between a label and its endbr64: indirect branches
	// land on the label and IBT requires endbr64 to execute first.
	instrument := func(entries []serialize.Entry, syms *asm.Symtab) ([]serialize.Entry, error) {
		var out []serialize.Entry
		for _, e := range entries {
			if !e.Synth && e.Inst.Op != x86.ENDBR64 {
				out = append(out, serialize.Entry{
					Ins:   asm.Ins{Inst: x86.Inst{Op: x86.NOP}},
					Synth: true,
				})
				serialize.MoveLabels(syms, &out[len(out)-1], &e)
			}
			out = append(out, e)
		}
		return out, nil
	}
	rewriteAndCompare(t, m, cc.DefaultConfig(), Options{Instrument: instrument}, [][]int64{{1, 2}})
}

func TestRewriteTwice(t *testing.T) {
	// Rewriting the rewritten binary must keep working (idempotent
	// pipeline robustness). The second rewrite sees a binary whose
	// original sections are data-only and whose new text is the only
	// executable section.
	m := trapModule()
	bin, _ := cc.Compile(m, cc.DefaultConfig())
	r1, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Rewrite(r1.Binary, Options{})
	if err != nil {
		t.Skipf("second rewrite unsupported: %v", err) // acceptable; documented
	}
	in := inputBytes([]int64{2, 3})
	a, err := emu.Run(bin, emu.Options{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	b, err := emu.Run(r2.Binary, emu.Options{Input: in})
	if err != nil {
		t.Fatalf("doubly rewritten binary failed: %v", err)
	}
	if !bytes.Equal(a.Stdout, b.Stdout) {
		t.Error("double rewrite diverged")
	}
}

func TestStatsPlausible(t *testing.T) {
	m := trapModule()
	ccfg := cc.DefaultConfig()
	ccfg.Opt = cc.O3
	bin, _ := cc.Compile(m, ccfg)
	res, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Blocks == 0 || st.Entries == 0 || st.Instructions == 0 {
		t.Errorf("graph stats empty: %+v", st)
	}
	if st.CodePointers == 0 {
		t.Error("no code pointers classified (FuncRef should produce one)")
	}
	if st.PinnedPointers == 0 {
		t.Error("no pinned pointers (data refs should be pinned)")
	}
	if st.Tables == 0 || st.TableEntries == 0 {
		t.Errorf("no jump tables symbolized: %+v", st)
	}
	if st.AddedInstructions == 0 {
		t.Error("no added instructions recorded")
	}
}

// TestOverApproximationIncludesDecoys: with Figure 3's plausible decoy
// values adjacent to the last jump table, SURI's over-approximation must
// absorb extra entries — and isolation must keep the program correct.
func TestOverApproximationIncludesDecoys(t *testing.T) {
	cases := make([]mini.SwitchCase, 8)
	for i := range cases {
		cases[i] = mini.SwitchCase{Val: int64(i), Body: []mini.Stmt{mini.Print{E: mini.Const(int64(i))}}}
	}
	m := &mini.Module{
		Name: "fig3",
		Globals: []*mini.Global{
			// Plausible-looking offsets right after the table: spread to
			// land inside the dispatch function wherever the linker puts
			// the sections.
			{Name: "decoys", Elem: 4, Count: 8, ReadOnly: true,
				Init: []int64{-0xf00, -0xef0, -0xee0, -0xed0, -0xec0, -0xeb0, -0xea0, -0xe90}},
		},
		Funcs: []*mini.Func{{
			Name:   "main",
			Locals: []string{"i"},
			Body: []mini.Stmt{
				mini.Assign{Name: "i", E: mini.Const(0)},
				mini.While{Cond: mini.Bin{Op: mini.Lt, L: mini.Var("i"), R: mini.Const(8)},
					Body: []mini.Stmt{
						mini.Switch{E: mini.Bin{Op: mini.And, L: mini.Var("i"), R: mini.Const(7)},
							Complete: true, Cases: cases},
						mini.Print{E: mini.LoadG{G: "decoys",
							Idx: mini.Bin{Op: mini.And, L: mini.Var("i"), R: mini.Const(3)}}},
						mini.Assign{Name: "i", E: mini.Bin{Op: mini.Add, L: mini.Var("i"), R: mini.Const(1)}},
					}},
			},
		}},
	}
	res := rewriteAndCompare(t, m, cc.DefaultConfig(), Options{}, [][]int64{nil})
	if res.Stats.TableEntries <= 8 {
		t.Errorf("over-approximation absorbed no decoys: %d entries for an 8-case table",
			res.Stats.TableEntries)
	}
}
