package core

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/harden"
	"repro/internal/instr"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// matrixBinary compiles the trap module with the default toolchain: it
// has .eh_frame, jump tables, and every pointer pattern, so every
// pipeline stage (and therefore every failpoint) is exercised.
func matrixBinary(t *testing.T) []byte {
	t.Helper()
	bin, err := cc.Compile(trapModule(), cc.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bin
}

// TestFaultInjectionMatrix arms every registered failpoint in turn and
// asserts Rewrite dies with a StageError naming the stage the registry
// promises — never a panic, never a missing stage tag.
func TestFaultInjectionMatrix(t *testing.T) {
	bin := matrixBinary(t)
	// Sanity: the clean pipeline must succeed before the matrix means
	// anything.
	if _, err := Rewrite(bin, Options{}); err != nil {
		t.Fatalf("clean rewrite: %v", err)
	}

	points := make([]string, 0, len(harden.Failpoints))
	for pt := range harden.Failpoints {
		points = append(points, pt)
	}
	sort.Strings(points)

	for _, pt := range points {
		pt := pt
		t.Run(pt, func(t *testing.T) {
			disarm := harden.NewPlan(harden.Fault{Point: pt}).Arm()
			defer disarm()
			// A live collector with a flight recorder rides along so the
			// matrix also proves (a) no injected fault can leak an open
			// span — every stage span is closed via defer — and (b) the
			// fault is journaled as a stage_error flight event.
			col := obs.NewWithClock(&obs.FakeClock{Step: 1}).EnableFlight(64)
			opts := Options{Obs: col}
			if pt == harden.FPInstrPass {
				// The per-pass failpoint only fires when the instr pass
				// pipeline actually runs; its fault must still surface as
				// a StageError naming the instrument stage.
				opts.Passes = []instr.Pass{instr.Coverage{}}
			}
			_, err := Rewrite(bin, opts)
			if err == nil {
				t.Fatalf("failpoint %s: rewrite succeeded", pt)
			}
			if !harden.IsInjected(err) {
				t.Fatalf("failpoint %s: error not injected: %v", pt, err)
			}
			if got, want := Stage(err), harden.Failpoints[pt]; got != want {
				t.Fatalf("failpoint %s: stage = %q, want %q (err: %v)", pt, got, want, err)
			}
			if open := col.Trace().OpenSpans(); open != 0 {
				t.Fatalf("failpoint %s: %d spans left open after the fault", pt, open)
			}
			found := false
			for _, e := range col.Flight().Events() {
				if e.Kind == "stage_error" && e.Name == Stage(err) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("failpoint %s: no stage_error flight event recorded (events: %+v)",
					pt, col.Flight().Events())
			}
		})
	}
}

// TestFaultInjectionDelayed fires mid-stage (not on the first traversal)
// to prove the After counter reaches deep loops like per-section reads
// and per-block decodes.
func TestFaultInjectionDelayed(t *testing.T) {
	bin := matrixBinary(t)
	for _, pt := range []string{harden.FPElfReadSection, harden.FPCfgDecode} {
		plan := harden.NewPlan(harden.Fault{Point: pt, After: 3})
		disarm := plan.Arm()
		_, err := Rewrite(bin, Options{})
		disarm()
		if err == nil || !harden.IsInjected(err) {
			t.Fatalf("delayed %s: err = %v", pt, err)
		}
		if plan.Hits(pt) != 4 {
			t.Fatalf("delayed %s: hits = %d, want 4", pt, plan.Hits(pt))
		}
	}
}

// TestSeededFaultSweep replays seeded single-fault plans: whatever the
// seed picks, the pipeline must return a stage-tagged injected error.
func TestSeededFaultSweep(t *testing.T) {
	bin := matrixBinary(t)
	for seed := int64(0); seed < 16; seed++ {
		plan := harden.SeededPlan(seed)
		disarm := plan.Arm()
		_, err := Rewrite(bin, Options{})
		disarm()
		pt := plan.Points()[0]
		// After may delay the fault past the point's traversal count
		// (e.g. After=2 on a point hit once); then the rewrite succeeds.
		if err == nil {
			continue
		}
		if !harden.IsInjected(err) || Stage(err) != harden.Failpoints[pt] {
			t.Errorf("seed %d (%s): err = %v, stage = %q", seed, pt, err, Stage(err))
		}
	}
}

func TestBudgetExceededSurfacesAsCfgStage(t *testing.T) {
	bin := matrixBinary(t)
	for _, tc := range []struct {
		name     string
		budget   harden.Budget
		resource string
	}{
		{"insts", harden.Budget{TotalInsts: 50}, "cfg.insts"},
		{"blocks", harden.Budget{Blocks: 3}, "cfg.blocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := obs.New().EnableFlight(16)
			_, err := Rewrite(bin, Options{Budget: tc.budget, Obs: col})
			if err == nil {
				t.Fatal("tiny budget rewrite succeeded")
			}
			if Stage(err) != "cfg" {
				t.Fatalf("stage = %q, want cfg (err: %v)", Stage(err), err)
			}
			if !errors.Is(err, harden.ErrBudget) {
				t.Fatalf("not a budget error: %v", err)
			}
			if !errors.Is(err, &harden.BudgetExceeded{Resource: tc.resource}) {
				t.Fatalf("resource != %s: %v", tc.resource, err)
			}
			// Budget exhaustion journals both the stage_error and a
			// dedicated budget event.
			kinds := map[string]bool{}
			for _, e := range col.Flight().Events() {
				kinds[e.Kind] = true
			}
			if !kinds["stage_error"] || !kinds["budget"] {
				t.Fatalf("flight events missing stage_error/budget: %v", kinds)
			}
		})
	}
}

func TestCancelAbortsRewrite(t *testing.T) {
	bin := matrixBinary(t)
	ch := make(chan struct{})
	close(ch)
	_, err := Rewrite(bin, Options{Cancel: ch})
	if err == nil {
		t.Fatal("canceled rewrite succeeded")
	}
	if !errors.Is(err, harden.ErrCanceled) || Stage(err) != "cfg" {
		t.Fatalf("err = %v (stage %q), want canceled in cfg", err, Stage(err))
	}
}

// TestPanicLeavesNoOpenSpans: a user instrumentation hook that panics
// must not leak an open stage span — the deferred End in the stage
// wrapper closes it on the unwind path too.
func TestPanicLeavesNoOpenSpans(t *testing.T) {
	bin := matrixBinary(t)
	col := obs.New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("instrument hook panic did not propagate")
			}
		}()
		Rewrite(bin, Options{
			Obs: col,
			Instrument: func([]serialize.Entry, *asm.Symtab) ([]serialize.Entry, error) {
				panic("user hook exploded")
			},
		})
	}()
	if open := col.Trace().OpenSpans(); open != 0 {
		t.Fatalf("%d spans left open after a panicking hook", open)
	}
}

// TestCancelMidPipeline closes the cancel channel from inside the
// instrumentation hook — after cfg has long finished — and the next
// stage boundary (emit) must still honor it.
func TestCancelMidPipeline(t *testing.T) {
	bin := matrixBinary(t)
	ch := make(chan struct{})
	_, err := Rewrite(bin, Options{
		Cancel: ch,
		Instrument: func(es []serialize.Entry, _ *asm.Symtab) ([]serialize.Entry, error) {
			close(ch)
			return es, nil
		},
	})
	if err == nil || !errors.Is(err, harden.ErrCanceled) || Stage(err) != "emit" {
		t.Fatalf("err = %v (stage %q), want canceled in emit", err, Stage(err))
	}
}

// corruptions are structural mutations guaranteed to break the pipeline
// (they destroy the ELF container, not just code bytes).
var corruptions = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
	{"magic", func(b []byte) []byte { b[0] = 0x7E; return b }},
	{"shoff", func(b []byte) []byte {
		for i := 40; i < 48; i++ {
			b[i] = 0xFF
		}
		return b
	}},
	{"shsize-overflow", func(b []byte) []byte {
		shoff := int(uint32(b[40]) | uint32(b[41])<<8 | uint32(b[42])<<16 | uint32(b[43])<<24)
		for i := 0; i < 8; i++ {
			b[shoff+64+32+i] = 0xFF // first real section's sh_size
		}
		return b
	}},
	{"entry-wild", func(b []byte) []byte {
		for i := 24; i < 32; i++ {
			b[i] = 0x7F
		}
		return b
	}},
}

// TestRewriteValidatedVerdicts is the acceptance matrix: clean corpus
// binaries validate, every corrupted mutant falls back to the original
// bytes.
func TestRewriteValidatedVerdicts(t *testing.T) {
	suite := prog.Suites(0.03)[0]
	programs := suite.Programs
	if len(programs) > 3 {
		programs = programs[:3]
	}
	for _, p := range programs {
		bin, err := cc.Compile(p.Module, cc.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		inputs := make([][]byte, 0, len(p.Inputs))
		for _, in := range p.Inputs {
			inputs = append(inputs, inputBytes(in))
		}

		res, err := RewriteValidated(bin, ValidateOptions{Inputs: inputs})
		if err != nil {
			t.Fatalf("%s: RewriteValidated: %v", p.Name, err)
		}
		if res.Verdict != VerdictValidated || res.Attempts != 1 {
			t.Fatalf("%s: clean binary verdict = %s (attempts %d, reason %q)",
				p.Name, res.Verdict, res.Attempts, res.Reason)
		}
		if res.Result == nil || !bytes.Equal(res.Binary, res.Result.Binary) {
			t.Fatalf("%s: validated result missing pipeline output", p.Name)
		}

		for _, c := range corruptions {
			mutant := c.mutate(append([]byte(nil), bin...))
			vres, err := RewriteValidated(mutant, ValidateOptions{Inputs: inputs})
			if err != nil {
				t.Fatalf("%s/%s: RewriteValidated: %v", p.Name, c.name, err)
			}
			if vres.Verdict != VerdictFallback {
				t.Fatalf("%s/%s: mutant verdict = %s, want fallback", p.Name, c.name, vres.Verdict)
			}
			if !bytes.Equal(vres.Binary, mutant) {
				t.Fatalf("%s/%s: fallback binary is not the original bytes", p.Name, c.name)
			}
			if vres.Reason == "" {
				t.Fatalf("%s/%s: fallback without a reason", p.Name, c.name)
			}
		}
	}
}

// TestRewriteValidatedDegraded forces the first attempt to die with a
// transient fault (Times: 1); the widened retry succeeds and the verdict
// records the degradation. The original's run, started before the fault
// hit, is reused by the retry rather than repeated: the request's
// tiered-engine steps equal those of a clean validated rewrite, which
// runs each binary once.
func TestRewriteValidatedDegraded(t *testing.T) {
	bin := matrixBinary(t)
	inputs := [][]byte{inputBytes([]int64{3, 4})}
	clean := obs.New()
	if res, err := RewriteValidated(bin, ValidateOptions{Options: Options{Obs: clean}, Inputs: inputs}); err != nil || res.Verdict != VerdictValidated {
		t.Fatalf("clean RewriteValidated: %+v, %v", res, err)
	}

	col := obs.New()
	disarm := harden.NewPlan(harden.Fault{Point: harden.FPSerialize, Times: 1}).Arm()
	res, err := RewriteValidated(bin, ValidateOptions{Options: Options{Obs: col}, Inputs: inputs})
	disarm()
	if err != nil {
		t.Fatalf("RewriteValidated: %v", err)
	}
	if res.Verdict != VerdictDegraded || res.Attempts != 2 {
		t.Fatalf("verdict = %s (attempts %d), want degraded after 2", res.Verdict, res.Attempts)
	}
	if res.Reason == "" || res.Result == nil {
		t.Fatalf("degraded result incomplete: reason %q", res.Reason)
	}
	want := clean.Metrics().Counter("emu.tier_steps").Value()
	if got := col.Metrics().Counter("emu.tier_steps").Value(); got != want || want == 0 {
		t.Fatalf("degraded emu.tier_steps = %d, want %d (the clean request's)", got, want)
	}

	// A failed original run is repeated under the widened budget: the
	// second input's run exhausts emuStepsBudget on the first attempt
	// and fits the retry's.
	res, err = RewriteValidated(bin, ValidateOptions{
		Options: Options{Budget: harden.Budget{EmuSteps: emuStepsBudget}},
		Inputs:  emuStepsInputs,
	})
	if err != nil {
		t.Fatalf("RewriteValidated: %v", err)
	}
	if res.Verdict != VerdictDegraded || res.Attempts != 2 || !strings.Contains(res.Reason, "emu.steps") {
		t.Fatalf("verdict = %s (attempts %d, reason %q), want degraded after 2 on emu.steps",
			res.Verdict, res.Attempts, res.Reason)
	}
}

// TestRewriteValidatedOutOfScopeRunsNothing: a parse error or a scope
// rejection returns before any emulation starts, with its reason as
// before.
func TestRewriteValidatedOutOfScopeRunsNothing(t *testing.T) {
	noCET := cc.DefaultConfig()
	noCET.CET = false
	plain, err := cc.Compile(trapModule(), noCET)
	if err != nil {
		t.Fatalf("compile without CET: %v", err)
	}
	for _, tc := range []struct {
		name   string
		bin    []byte
		reason string
	}{
		{"parse-error", []byte("not an elf"), "suri: elf: " + elfx.ErrNotELF.Error()},
		{"non-cet", plain, ErrNotCETPIE.Error()},
	} {
		col := obs.New()
		res, err := RewriteValidated(tc.bin, ValidateOptions{
			Options: Options{Obs: col},
			Inputs:  [][]byte{inputBytes([]int64{3, 4})},
		})
		if err != nil {
			t.Fatalf("%s: RewriteValidated: %v", tc.name, err)
		}
		if res.Verdict != VerdictFallback || res.Reason != tc.reason {
			t.Fatalf("%s: verdict %s, reason %q; want fallback, %q", tc.name, res.Verdict, res.Reason, tc.reason)
		}
		if steps := col.Metrics().Counter("emu.tier_steps").Value(); steps != 0 {
			t.Fatalf("%s: emu.tier_steps = %d, want 0", tc.name, steps)
		}
	}
}

// trapEveryEntry plants a trap in every fall-through path: whatever
// instruction runs first, the next step dies. (A trap merely prepended
// to the stream would never execute — control enters via block labels.)
func trapEveryEntry(entries []serialize.Entry, _ *asm.Symtab) ([]serialize.Entry, error) {
	out := make([]serialize.Entry, 0, 2*len(entries))
	for _, e := range entries {
		out = append(out, e)
		if !e.Synth {
			out = append(out, serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.UD2}}, Synth: true})
		}
	}
	return out, nil
}

// TestRewriteValidatedDivergenceFallsBack instruments the binary with a
// trap at the first instruction: the rewrite pipeline succeeds, but the
// rewritten binary no longer behaves like the original, so validation
// must reject it and fall back.
func TestRewriteValidatedDivergenceFallsBack(t *testing.T) {
	bin := matrixBinary(t)
	res, err := RewriteValidated(bin, ValidateOptions{
		Options: Options{Instrument: trapEveryEntry},
		Inputs:  [][]byte{inputBytes([]int64{1, 2})},
	})
	if err != nil {
		t.Fatalf("RewriteValidated: %v", err)
	}
	if res.Verdict != VerdictFallback {
		t.Fatalf("verdict = %s, want fallback (reason %q)", res.Verdict, res.Reason)
	}
	if !bytes.Equal(res.Binary, bin) {
		t.Fatal("fallback did not return the original bytes")
	}
}

// TestRewriteValidatedSkipsRetryOnParseError: an elf-stage death is
// deterministic, so the widened retry is skipped.
func TestRewriteValidatedSkipsRetryOnParseError(t *testing.T) {
	res, err := RewriteValidated([]byte("not an elf"), ValidateOptions{})
	if err != nil {
		t.Fatalf("RewriteValidated: %v", err)
	}
	if res.Verdict != VerdictFallback || res.Attempts != 1 {
		t.Fatalf("verdict = %s, attempts = %d; want fallback after 1", res.Verdict, res.Attempts)
	}
}
