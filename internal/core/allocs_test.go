package core

import (
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/prog"
)

// Allocation ceilings for one rewrite of allocsFixture, about 1.2x the
// larger measured figures (go1.24, linux/amd64): 503 mallocs and
// 0.57-0.60 MB per rewrite, 516 and up to 0.70 MB under -race, where
// sync.Pool drops a quarter of the buffers put back, so the stages'
// pooled scratch is allocated afresh more often. Before jump-table
// re-analysis kept an unchanged table and built its candidate in the
// CFG builder's scratch, the same rewrite took 567 mallocs; before the
// CFG owner index, the assembler's per-item tables and the S' item list
// were reused across rewrites, and block labels stopped costing one
// string each, 1143 mallocs and 0.83 MB; before operands became values
// and labels integer IDs (a pointer-free S'), 2573 mallocs and 0.97 MB;
// before the CFG builder indexed the text densely and placed
// instructions in an arena, and S' shrank to 120-byte entries, 2790
// mallocs and 1.16 MB; before the emitter assembled S' in place,
// 1.64 MB; before the stages sized their streams once, about 7750
// mallocs and 5.9 MB.
const (
	maxRewriteMallocs   = 620
	maxRewriteBytes     = 720_000
	maxRewriteBytesRace = 840_000
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
	ceiling := uint64(maxRewriteBytes)
	if raceEnabled {
		ceiling = maxRewriteBytesRace
	}
	if bytes > ceiling {
		t.Errorf("rewrite allocated %d bytes, ceiling %d", bytes, ceiling)
	}
}
