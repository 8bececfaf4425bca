package repair

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/mini"
	"repro/internal/serialize"
)

// trapBinary compiles a module with both code pointers (FuncRef) and
// composite anchored accesses (.bss at -O2).
func trapBinary(t *testing.T) (*cfg.Graph, []serialize.Entry) {
	t.Helper()
	m := &mini.Module{
		Name: "r",
		Globals: []*mini.Global{
			{Name: "z", Elem: 8, Count: 8}, // .bss: anchored at -O2
		},
		Funcs: []*mini.Func{
			{Name: "g", NParams: 1, Body: []mini.Stmt{
				mini.Return{E: mini.Bin{Op: mini.Add, L: mini.Var("p0"), R: mini.Const(1)}}}},
			{Name: "main", Locals: []string{"i", "fp"}, Body: []mini.Stmt{
				mini.Assign{Name: "i", E: mini.Const(0)},
				mini.While{Cond: mini.Bin{Op: mini.Lt, L: mini.Var("i"), R: mini.Const(8)},
					Body: []mini.Stmt{
						mini.StoreG{G: "z", Idx: mini.Var("i"), E: mini.Var("i")},
						mini.Print{E: mini.LoadG{G: "z", Idx: mini.Var("i")}},
						mini.Assign{Name: "i", E: mini.Bin{Op: mini.Add, L: mini.Var("i"), R: mini.Const(1)}},
					}},
				mini.Assign{Name: "fp", E: mini.FuncRef{Name: "g"}},
				mini.Print{E: mini.CallVal{F: mini.Var("fp"), Args: []mini.Expr{mini.Const(1)}}},
			}},
		},
	}
	cfgc := cc.DefaultConfig()
	cfgc.Opt = cc.O2
	bin, err := cc.Compile(m, cfgc)
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
	return g, entries
}

func TestRepairClassifiesPointers(t *testing.T) {
	g, entries := trapBinary(t)
	res, err := Repair(entries, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.CodePointers == 0 {
		t.Error("FuncRef should yield at least one endbr64-classified code pointer")
	}
	if res.Pinned == 0 {
		t.Error("data references should be pinned")
	}
	// Every pinned label must have a matching set, named for its target.
	for lbl, addr := range res.Sets {
		if !strings.HasPrefix(lbl, "LO_") {
			t.Errorf("bad pin label %q", lbl)
		}
		if OrigLabel(addr) != lbl {
			t.Errorf("set %q does not round-trip its address %#x", lbl, addr)
		}
	}
	// No RIP-relative operand may remain unsymbolized.
	for _, e := range entries {
		if e.Synth {
			continue
		}
		if m, ok := e.Inst.MemArg(); ok && m.Rip && e.Target == 0 {
			t.Errorf("unrepaired RIP reference at %#x: %s", e.Addr, e.Inst)
		}
	}
}

func TestRepairAudit(t *testing.T) {
	g, entries := trapBinary(t)
	if _, err := Repair(entries, g); err != nil {
		t.Fatal(err)
	}
	n, err := Audit(entries, g)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if n == 0 {
		t.Error("audit verified no pointers")
	}
	// Corrupt one classification: point a pinned entry at a code label.
	for i := range entries {
		e := &entries[i]
		if e.Synth || e.Target == 0 || !strings.HasPrefix(g.Syms.Name(e.Target), "LO_") {
			continue
		}
		if m, ok := e.Inst.MemArg(); ok && m.Rip {
			tgt, _ := e.Inst.RipTarget(e.Addr, int(e.Size))
			e.Target = serialize.Label(g.Syms, tgt)
			break
		}
	}
	if _, err := Audit(entries, g); err == nil {
		t.Error("audit accepted a non-endbr64 target classified as code")
	}
}
