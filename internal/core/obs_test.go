package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/mini"
	"repro/internal/obs"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// figure4Stages is the pipeline stage set from the paper's Figure 4, in
// execution order; Rewrite must emit exactly one span per stage.
var figure4Stages = []string{"cfg", "serialize", "repair", "audit", "symbolize", "instrument", "emit"}

func TestRewriteTraceShape(t *testing.T) {
	bin, err := cc.Compile(trapModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewWithClock(&obs.FakeClock{Step: 1})
	res, err := Rewrite(bin, Options{Obs: col})
	if err != nil {
		t.Fatal(err)
	}

	root := res.Trace
	if root == nil {
		t.Fatal("Result.Trace is nil with a collector attached")
	}
	if root.Name != "rewrite" {
		t.Fatalf("root span = %q, want rewrite", root.Name)
	}
	if len(root.Children) != len(figure4Stages) {
		t.Fatalf("root has %d stage spans, want %d: %v", len(root.Children), len(figure4Stages), spanNames(root.Children))
	}
	for i, want := range figure4Stages {
		if root.Children[i].Name != want {
			t.Errorf("stage %d = %q, want %q", i, root.Children[i].Name, want)
		}
	}

	// The CFG builder must report nested sub-spans: entry harvesting and
	// at least one disassembly round and one table-slicing round (the
	// trap module has jump tables).
	cfgSpan := root.Children[0]
	names := spanNames(cfgSpan.Children)
	for _, want := range []string{"harvest", "disasm", "tables"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("cfg span missing %q sub-span (got %v)", want, names)
		}
	}

	// Every span must be closed and contained within its parent.
	var walk func(s *obs.Span)
	var walked int
	walk = func(s *obs.Span) {
		walked++
		if s.Stop < s.Start {
			t.Errorf("span %q never closed (stop %d < start %d)", s.Name, s.Stop, s.Start)
		}
		for _, c := range s.Children {
			if c.Start < s.Start || c.Stop > s.Stop {
				t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]", c.Name, c.Start, c.Stop, s.Name, s.Start, s.Stop)
			}
			walk(c)
		}
	}
	walk(root)
	if walked < len(figure4Stages)+2 {
		t.Errorf("only %d spans recorded", walked)
	}

	// The stats feed must have populated the registry.
	snap := col.Metrics().Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["suri.rewrites"] != 1 {
		t.Errorf("suri.rewrites = %d, want 1", counters["suri.rewrites"])
	}
	if counters["suri.blocks"] != int64(res.Stats.Blocks) {
		t.Errorf("suri.blocks = %d, stats say %d", counters["suri.blocks"], res.Stats.Blocks)
	}
	if counters["suri.tables"] != int64(res.Stats.Tables) {
		t.Errorf("suri.tables = %d, stats say %d", counters["suri.tables"], res.Stats.Tables)
	}
	if len(snap.Histograms) == 0 {
		t.Error("no histograms recorded (expected asm.relax_rounds)")
	}
}

func spanNames(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestRewriteUntracedHasNoTrace: the nil-collector path must not invent
// a trace.
func TestRewriteUntracedHasNoTrace(t *testing.T) {
	bin, err := cc.Compile(&mini.Module{
		Name: "plain",
		Funcs: []*mini.Func{{
			Name: "main",
			Body: []mini.Stmt{mini.Return{E: mini.Const(0)}},
		}},
	}, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace set without a collector")
	}
}

// TestRenderSortedSets: .set pins must render sorted by name regardless
// of map insertion/iteration order.
func TestRenderSortedSets(t *testing.T) {
	sets := map[string]uint64{
		"zeta":  0x30,
		"alpha": 0x10,
		"mid":   0x20,
	}
	out := Render(nil, asm.NewSymtab(0), sets)
	ia := strings.Index(out, "alpha")
	im := strings.Index(out, "mid")
	iz := strings.Index(out, "zeta")
	if ia < 0 || im < 0 || iz < 0 {
		t.Fatalf("render missing set pins:\n%s", out)
	}
	if !(ia < im && im < iz) {
		t.Errorf("set pins not sorted by name (alpha@%d mid@%d zeta@%d):\n%s", ia, im, iz, out)
	}
	for i := 0; i < 8; i++ {
		if Render(nil, asm.NewSymtab(0), sets) != out {
			t.Fatal("Render nondeterministic across calls")
		}
	}
}

// TestRenderSPrime renders a real rewrite's S': one instruction line per
// entry, every entry label as a "name:" line in stream order, and
// symbolic branches printed with their target label.
func TestRenderSPrime(t *testing.T) {
	res, err := Rewrite(allocsFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	syms := res.Graph.Syms
	var wantLabels []string
	for _, e := range res.SPrime {
		for _, l := range e.Labels(syms) {
			wantLabels = append(wantLabels, syms.Name(l))
		}
	}
	var ins, labels []string
	for _, line := range strings.Split(Render(res.SPrime, syms, nil), "\n") {
		switch {
		case strings.HasPrefix(line, "\t"):
			ins = append(ins, line[1:])
		case strings.HasSuffix(line, ":"):
			labels = append(labels, strings.TrimSuffix(line, ":"))
		}
	}
	if len(ins) != len(res.SPrime) {
		t.Fatalf("%d instruction lines for %d entries", len(ins), len(res.SPrime))
	}
	if !slices.Equal(labels, wantLabels) {
		t.Fatalf("label lines differ from the entries' labels: got %d, want %d", len(labels), len(wantLabels))
	}
	branches := 0
	for i, e := range res.SPrime {
		if e.Inst.Src.Kind != x86.ArgRel || e.Target == 0 {
			continue
		}
		branches++
		if !strings.HasSuffix(ins[i], " "+syms.Name(e.Target)) {
			t.Errorf("entry %d branches to %s but renders as %q", i, syms.Name(e.Target), ins[i])
		}
	}
	if branches == 0 {
		t.Fatal("fixture S' has no symbolic branch")
	}
}

// TestRenderDispDiff checks that an instrumenter's symbol-difference
// displacement survives into the assembled binary's S' and its listing.
// The inserted load sits after the shared trap, so it never executes.
func TestRenderDispDiff(t *testing.T) {
	var plus string
	instrument := func(entries []serialize.Entry, syms *asm.Symtab) ([]serialize.Entry, error) {
		plus = syms.Name(entries[0].Label)
		return append(entries, serialize.Entry{Ins: asm.Ins{
			Inst: x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
				Src: x86.Mem{Base: x86.R9, Index: x86.NoReg, Disp: 0x10, Wide: true}.Arg()},
			Diff: asm.DispDiff{Plus: entries[0].Label, Minus: syms.Intern(serialize.TrapLabel)},
		}, Synth: true}), nil
	}
	res, err := Rewrite(allocsFixture(t), Options{Instrument: instrument})
	if err != nil {
		t.Fatal(err)
	}
	want := "mov RAX, QWORD PTR [R9+0x10+(" + plus + "-" + serialize.TrapLabel + ")]"
	if out := Render(res.SPrime, res.Graph.Syms, nil); !strings.Contains(out, want) {
		t.Errorf("Render output missing %q", want)
	}
}
