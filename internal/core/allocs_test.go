package core

import (
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/prog"
)

// Allocation ceilings for one rewrite of allocsFixture, about 1.2x the
// larger measured figures (go1.24, linux/amd64): 1143 mallocs and
// 0.83 MB per rewrite, 1143 and 0.84 MB under -race. Before operands
// became values and labels integer IDs (a pointer-free S'), the same
// rewrite took 2573 mallocs and 0.97 MB; before the CFG builder indexed
// the text densely and placed instructions in an arena, and S' shrank
// to 120-byte entries, 2790 mallocs and 1.16 MB; before the emitter
// assembled S' in place, 1.64 MB; before the stages sized their
// streams once, about 7750 mallocs and 5.9 MB.
const (
	maxRewriteMallocs = 1370
	maxRewriteBytes   = 1_000_000
)

// allocsFixture is a fixed medium program: six functions, two switches
// (jump tables) and a sixteen-iteration main loop.
func allocsFixture(t *testing.T) []byte {
	t.Helper()
	p := prog.Generate("allocs", 9, prog.Shape{Funcs: 6, Switches: 2, Globals: 6, MainLoop: 16, Stmts: 8, NumInputs: 1})
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestRewriteAllocs gates the pipeline's allocation volume: every Fig. 4
// stage allocates its output once, at its final size, so a stage that
// falls back to growing a stream by appends shows up here as a jump in
// mallocs or bytes.
func TestRewriteAllocs(t *testing.T) {
	bin := allocsFixture(t)
	rewrite := func() {
		if _, err := Rewrite(bin, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	mallocs := testing.AllocsPerRun(10, rewrite)

	const runs = 10
	rewrite()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rewrite()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs

	t.Logf("rewrite: %.0f mallocs, %d bytes", mallocs, bytes)
	if mallocs > maxRewriteMallocs {
		t.Errorf("rewrite made %.0f mallocs, ceiling %d", mallocs, maxRewriteMallocs)
	}
	if bytes > maxRewriteBytes {
		t.Errorf("rewrite allocated %d bytes, ceiling %d", bytes, maxRewriteBytes)
	}
}
