package cfg

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/elfx"
)

// graphShape reduces a graph to its observable structure for equality
// checks.
type graphShape struct {
	Entries []uint64
	Blocks  map[uint64][]uint64 // addr -> [end, #insts, fall, invalid]
	Tables  int
}

func shapeOf(g *Graph) graphShape {
	s := graphShape{Entries: g.Entries, Blocks: make(map[uint64][]uint64), Tables: len(g.Tables)}
	for addr, b := range g.Blocks {
		fall := uint64(0)
		if b.HasFall {
			fall = b.Fall
		}
		inv := uint64(0)
		if b.Invalid {
			inv = 1
		}
		s.Blocks[addr] = []uint64{b.End(), uint64(len(b.Insts)), fall, inv}
	}
	return s
}

// TestBuildDecodeCount pins Stats.PlaneMisses — the number of
// x86.Decode calls a build makes — for both switchModule configurations.
// The builder decodes each reachable offset exactly once, and here every
// decode succeeds, so the count also equals the instruction count. It
// must not move when the builder's internals change.
func TestBuildDecodeCount(t *testing.T) {
	for _, c := range []struct {
		cfg  cc.Config
		want uint64
	}{
		{cc.DefaultConfig(), 195},
		{cc.Config{Compiler: cc.GCC13, Opt: cc.O2}, 131},
	} {
		bin, err := cc.Compile(switchModule(), c.cfg)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		f, err := elfx.Read(bin)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(f, DefaultOptions())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		st := g.Stats()
		if st.PlaneMisses != c.want {
			t.Errorf("config %v: PlaneMisses = %d, want %d", c.cfg, st.PlaneMisses, c.want)
		}
		if st.PlaneMisses != uint64(st.Instructions) {
			t.Errorf("config %v: %d decodes for %d instructions", c.cfg, st.PlaneMisses, st.Instructions)
		}
	}
}

// TestConcurrentBuilds runs concurrent builds of the same binary — the
// farm's validated-rewrite pattern — and checks each produces the
// sequential graph. Builds share no decode state; run under -race this
// proves the builder keeps no hidden package-level state.
func TestConcurrentBuilds(t *testing.T) {
	bin, err := cc.Compile(switchModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := shapeOf(seq)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine parses its own file (elfx.File is not
			// documented concurrency-safe).
			ff, err := elfx.Read(bin)
			if err != nil {
				t.Error(err)
				return
			}
			g, err := Build(ff, DefaultOptions())
			if err != nil {
				t.Errorf("concurrent Build: %v", err)
				return
			}
			if !reflect.DeepEqual(shapeOf(g), want) {
				t.Error("concurrent graph differs from the sequential one")
			}
		}()
	}
	wg.Wait()
}
