package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/prog"
)

// The pipeline stages keep their internal scratch (the CFG builder's
// owner index, the assembler's per-item tables, the emitter's item
// list) in sync.Pools across calls. These tests pin that the reuse is
// invisible: no rewrite's output depends on what ran before it or
// beside it, and nothing a pool keeps reaches a returned Result.

// emptyPools drops every idle sync.Pool entry: a pooled object survives
// one collection in the victim cache and is freed by the second.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// reuseFixtures returns two different binaries, the first with the
// larger text section, so a scratch grown by the first is reused by the
// second with stale contents beyond the second's size.
func reuseFixtures(t *testing.T) (big, small []byte) {
	t.Helper()
	compile := func(name string, seed int64, shape prog.Shape) []byte {
		p := prog.Generate(name, seed, shape)
		bin, err := cc.Compile(p.Module, cc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	big = compile("reuse_big", 5, prog.Shape{Funcs: 8, Switches: 3, Globals: 6, MainLoop: 8, Stmts: 10, NumInputs: 1})
	small = compile("reuse_small", 6, prog.Shape{Funcs: 3, Switches: 1, Globals: 3, MainLoop: 4, Stmts: 6, NumInputs: 1})
	if tb, ts := textSize(t, big), textSize(t, small); tb <= ts {
		t.Fatalf("fixture texts are %d and %d bytes; the first must be larger", tb, ts)
	}
	return big, small
}

func textSize(t *testing.T, bin []byte) uint64 {
	t.Helper()
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFExecinstr != 0 {
			return s.Size
		}
	}
	t.Fatal("no executable section")
	return 0
}

func mustRewrite(t *testing.T, bin []byte) *Result {
	t.Helper()
	res, err := Rewrite(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRewriteReuseIsolation rewrites a larger and a smaller binary in
// A, B, A order: every output must equal the binary's rewrite with empty
// pools, and an earlier Result must be unchanged by the later rewrites.
func TestRewriteReuseIsolation(t *testing.T) {
	big, small := reuseFixtures(t)
	emptyPools()
	first := mustRewrite(t, big)
	emptyPools()
	freshSmall := mustRewrite(t, small).Binary

	wantBin := bytes.Clone(first.Binary)
	wantSPrime := slices.Clone(first.SPrime)
	wantListing := Render(first.SPrime, first.Graph.Syms, nil)

	for i, c := range []struct {
		bin, want []byte
	}{{big, wantBin}, {small, freshSmall}, {big, wantBin}} {
		if got := mustRewrite(t, c.bin).Binary; !bytes.Equal(got, c.want) {
			t.Errorf("rewrite %d differs from the same binary's rewrite with empty pools", i)
		}
	}

	if !bytes.Equal(first.Binary, wantBin) {
		t.Error("an earlier Result's Binary changed under later rewrites")
	}
	if !slices.Equal(first.SPrime, wantSPrime) {
		t.Error("an earlier Result's S' changed under later rewrites")
	}
	if got := Render(first.SPrime, first.Graph.Syms, nil); got != wantListing {
		t.Error("an earlier Result's S' listing changed under later rewrites")
	}
}

// TestRewriteReuseConcurrent rewrites the two binaries from two
// goroutines at once; the pools must hand each call its own scratch.
func TestRewriteReuseConcurrent(t *testing.T) {
	big, small := reuseFixtures(t)
	emptyPools()
	want := [][]byte{mustRewrite(t, big).Binary, mustRewrite(t, small).Binary}
	bins := [][]byte{big, small}

	var wg sync.WaitGroup
	for w := range bins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := Rewrite(bins[w], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(res.Binary, want[w]) {
					t.Errorf("goroutine %d rewrite %d differs from the sequential rewrite", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRewriteResultCollectable drops a Result and collects once: its S'
// slab and its Graph must be freed. A pool that still points into S'
// (the emitter's item list) or at a Block (the builder's id table)
// keeps them alive through the collection, in its victim cache.
func TestRewriteResultCollectable(t *testing.T) {
	bin := allocsFixture(t)
	res := mustRewrite(t, bin)
	sprime := weak.Make(&res.SPrime[0])
	graph := weak.Make(res.Graph)
	block := weak.Make(res.Graph.SortedBlocks()[0])
	res = nil
	runtime.GC()
	if sprime.Value() != nil {
		t.Error("S' outlived its dropped Result: something pooled still points into it")
	}
	if graph.Value() != nil || block.Value() != nil {
		t.Error("the CFG outlived its dropped Result: something pooled still points at it")
	}
}

// TestRewriteLeavesInputIntact: the emitter aliases the parsed input's
// sections instead of copying them, so it must never write through
// them.
func TestRewriteLeavesInputIntact(t *testing.T) {
	bin := allocsFixture(t)
	want := bytes.Clone(bin)
	if _, err := Rewrite(bin, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, want) {
		t.Fatal("Rewrite modified its input")
	}
	if _, err := RewriteValidated(bin, ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, want) {
		t.Fatal("RewriteValidated modified its input")
	}
}
