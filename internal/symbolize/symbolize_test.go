package symbolize

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/mini"
	"repro/internal/repair"
	"repro/internal/serialize"
	"repro/internal/x86"
)

func switchGraph(t *testing.T) (*cfg.Graph, []serialize.Entry) {
	t.Helper()
	cases := make([]mini.SwitchCase, 8)
	for i := range cases {
		cases[i] = mini.SwitchCase{Val: int64(i), Body: []mini.Stmt{mini.Print{E: mini.Const(int64(i))}}}
	}
	m := &mini.Module{
		Name: "sw",
		Funcs: []*mini.Func{{
			Name:   "main",
			Locals: []string{"i"},
			Body: []mini.Stmt{
				mini.Assign{Name: "i", E: mini.Const(0)},
				mini.While{Cond: mini.Bin{Op: mini.Lt, L: mini.Var("i"), R: mini.Const(8)},
					Body: []mini.Stmt{
						mini.Switch{E: mini.Var("i"), Complete: true, Cases: cases},
						mini.Assign{Name: "i", E: mini.Bin{Op: mini.Add, L: mini.Var("i"), R: mini.Const(1)}},
					}},
			},
		}},
	}
	ccfg := cc.DefaultConfig()
	bin, err := cc.Compile(m, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(f, cfg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	entries, err := serialize.Serialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repair.Repair(entries, g); err != nil {
		t.Fatal(err)
	}
	return g, entries
}

func TestSymbolizeInsertsBaseFix(t *testing.T) {
	g, entries := switchGraph(t)
	if len(g.Tables) == 0 {
		t.Fatal("no jump tables")
	}
	out, res, err := Symbolize(entries, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables != len(collectLoads(g)) {
		t.Errorf("symbolized %d sites, want %d", res.Tables, len(collectLoads(g)))
	}
	if res.NewEntries == 0 {
		t.Error("no isolated table entries")
	}

	// Before every table load there must be a synthesized lea to the
	// isolated table, dominating all paths (it carries the load's
	// original labels).
	loads := collectLoads(g)
	for i, e := range out {
		if e.Synth || !loads[e.Addr] {
			continue
		}
		found := false
		for j := i - 1; j >= 0 && j >= i-12; j-- {
			p := out[j]
			if p.Synth && p.Inst.Op == x86.LEA && strings.HasPrefix(g.Syms.Name(p.Target), "LJT_") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("table load at %#x has no preceding isolated-table lea", e.Addr)
		}
	}

	// Isolated tables are LongDiff items against their own labels.
	diffs := 0
	for _, it := range res.TableItems {
		if d, ok := it.(asm.LongDiff); ok {
			diffs++
			if name := g.Syms.Name(d.Minus); !strings.HasPrefix(name, "LJT_") {
				t.Errorf("table entry subtracts %q, want an LJT_ base", name)
			}
		}
	}
	if diffs != res.NewEntries {
		t.Errorf("%d diff items vs %d reported entries", diffs, res.NewEntries)
	}
}

func collectLoads(g *cfg.Graph) map[uint64]bool {
	out := map[uint64]bool{}
	for _, tbl := range g.Tables {
		out[tbl.LoadAddr] = true
	}
	return out
}

func TestBuildFixMultiBase(t *testing.T) {
	res := &Result{Sets: map[string]uint64{}}
	n := 0
	syms := asm.NewSymtab(0)
	newLabel := func(p string) asm.Sym { n++; return syms.Intern(p + "x") }
	fix := buildFix(nil, syms, x86.RDX, []uint64{0x2000, 0x3000}, res, newLabel)
	// Must contain: push scratch, per-base compare chain, final
	// unconditional lea, pop scratch.
	if fix[0].Inst.Op != x86.PUSH {
		t.Error("multi-base fix must save a scratch register")
	}
	if fix[len(fix)-1].Inst.Op != x86.POP {
		t.Error("multi-base fix must restore the scratch register")
	}
	cmps, leas := 0, 0
	for _, e := range fix {
		switch e.Inst.Op {
		case x86.CMP:
			cmps++
		case x86.LEA:
			leas++
		}
	}
	if cmps != 1 {
		t.Errorf("2-base chain needs exactly 1 comparison, got %d", cmps)
	}
	if leas != 3 { // scratch load + two table leas
		t.Errorf("expected 3 leas, got %d", leas)
	}
	if len(res.Sets) != 1 {
		t.Errorf("expected 1 original-base set, got %d", len(res.Sets))
	}
	// Scratch register selection must avoid the base register.
	fix2 := buildFix(nil, syms, x86.R11, []uint64{0x2000, 0x3000}, res, newLabel)
	if r, ok := fix2[0].Inst.Src.AsReg(); !ok || r == x86.R11 {
		t.Error("scratch register collides with base register")
	}
}

// referenceSymbolize is the straightforward append-based construction of
// S' that Symbolize's in-place insertion must reproduce: a fresh stream,
// each load preceded by its fix, the load's labels moved onto the fix.
func referenceSymbolize(entries []serialize.Entry, g *cfg.Graph) ([]serialize.Entry, *Result) {
	res := &Result{}
	bases := map[uint64][]uint64{}
	regs := map[uint64]x86.Reg{}
	for _, t := range g.Tables {
		if _, ok := regs[t.LoadAddr]; !ok {
			regs[t.LoadAddr] = t.BaseReg
		}
		for _, b := range t.Bases {
			if !containsU64(bases[t.LoadAddr], b) {
				bases[t.LoadAddr] = append(bases[t.LoadAddr], b)
			}
		}
	}
	n := 0
	newLabel := func(p string) asm.Sym {
		n++
		return g.Syms.Intern(fmt.Sprintf(".Lsym_%s%d", p, n))
	}
	var out []serialize.Entry
	for _, e := range entries {
		if bs, ok := bases[e.Addr]; ok && !e.Synth && e.Addr != 0 {
			fix := buildFix(nil, g.Syms, regs[e.Addr], bs, res, newLabel)
			serialize.MoveLabels(g.Syms, &fix[0], &e)
			out = append(out, fix...)
			res.Inserted += len(fix)
			res.Tables++
			if len(bs) > 1 {
				res.MultiBase++
			}
		}
		out = append(out, e)
	}
	return out, res
}

// inPlaceCase is a synthetic stream of twelve instructions with dispatch
// sites on the first entry, the last entry, and two adjacent entries;
// the second adjacent load carries labels and is shared by two tables
// whose bases are unioned.
func inPlaceCase() ([]serialize.Entry, *cfg.Graph) {
	const base = 0x1000
	entries := make([]serialize.Entry, 12)
	for i := range entries {
		entries[i] = serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.NOP}}, Addr: base + 4*uint64(i), Size: 4}
	}
	syms := asm.NewSymtab(0)
	entries[0].Label = syms.Intern("first")
	entries[3].Label = syms.Intern("mid")
	entries[6].Label = syms.Intern("split_a")
	entries[6].AddLabel(syms, syms.Intern("split_b"))
	at := func(i int) uint64 { return base + 4*uint64(i) }
	tgt := at(2)
	table := func(load int, reg x86.Reg, bases ...uint64) *cfg.JumpTable {
		t := &cfg.JumpTable{LoadAddr: at(load), BaseReg: reg, Bases: bases,
			Targets: map[uint64][]uint64{}}
		for _, b := range bases {
			t.Targets[b] = []uint64{tgt, 0xdead}
		}
		return t
	}
	g := &cfg.Graph{
		Syms:   syms,
		Blocks: map[uint64]*cfg.Block{tgt: {Addr: tgt}},
		Tables: []*cfg.JumpTable{
			table(0, x86.RDX, 0x5000, 0x5100, 0x5200),
			table(5, x86.RCX, 0x5300),
			table(6, x86.R11, 0x5400),
			table(6, x86.R11, 0x5400, 0x5500),
			table(11, x86.RAX, 0x5600, 0x5700),
		},
	}
	return entries, g
}

func cloneEntries(es []serialize.Entry, extra int) []serialize.Entry {
	out := make([]serialize.Entry, len(es), len(es)+extra)
	copy(out, es)
	return out
}

// TestSymbolizeInPlaceMatchesAppend checks the in-place insertion
// against the append-based reference, both when the input reserves room
// for the fixes (as Serialize's output does; no reallocation) and when it
// has none (the array must grow).
func TestSymbolizeInPlaceMatchesAppend(t *testing.T) {
	for _, extra := range []int{0, 64} {
		entries, g := inPlaceCase()
		want, wantRes := referenceSymbolize(cloneEntries(entries, 0), g)
		in := cloneEntries(entries, extra)
		out, res, err := Symbolize(in, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, want) {
			for i := range want {
				if i >= len(out) || !reflect.DeepEqual(out[i], want[i]) {
					t.Fatalf("room %d: entry %d differs:\n got %+v\nwant %+v", extra, i, out[min(i, len(out)-1)], want[i])
				}
			}
			t.Fatalf("room %d: %d entries, want %d", extra, len(out), len(want))
		}
		if res.Tables != wantRes.Tables || res.MultiBase != wantRes.MultiBase ||
			res.Inserted != wantRes.Inserted || !reflect.DeepEqual(res.Sets, wantRes.Sets) {
			t.Errorf("room %d: result %d/%d/%d %v, want %d/%d/%d %v", extra,
				res.Tables, res.MultiBase, res.Inserted, res.Sets,
				wantRes.Tables, wantRes.MultiBase, wantRes.Inserted, wantRes.Sets)
		}
		if res.Tables != 4 || res.MultiBase != 3 {
			t.Errorf("room %d: %d sites (%d multi-base), want 4 (3)", extra, res.Tables, res.MultiBase)
		}
		if reused := &out[0] == &in[:1][0]; reused != (extra >= res.Inserted) {
			t.Errorf("room %d: backing array reused = %v with %d inserted", extra, reused, res.Inserted)
		}
	}
}

// TestSymbolizeNoTablesInPlace: without tables the input stream comes
// back as is, and the only allocation is the *Result itself.
func TestSymbolizeNoTablesInPlace(t *testing.T) {
	entries, g := inPlaceCase()
	g.Tables = nil
	out, _, err := Symbolize(entries, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(entries) || &out[0] != &entries[0] {
		t.Fatal("no-table stream was copied")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := Symbolize(entries, g); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("no-table Symbolize made %.0f allocations, want 1 (the Result)", n)
	}
}
