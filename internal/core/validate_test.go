package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"repro/internal/asm"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/harden"
	"repro/internal/prog"
	"repro/internal/serialize"
)

var update = flag.Bool("update", false, "rewrite the checked-in manifests under testdata/")

const verdictManifestPath = "testdata/verdict_manifest.txt"

// verdictCase is one validated rewrite whose outcome the verdict
// manifest pins.
type verdictCase struct {
	name string
	bin  []byte
	opts ValidateOptions
	// fault, if set, is armed (fresh) around the call.
	fault *harden.Fault
}

// emuStepsInputs are two inputs of the trap module whose original runs
// take 21370 and 21384 steps: under emuStepsBudget the first passes and
// the second exhausts emu.steps, while the retry's widened budget (×4)
// covers both.
var emuStepsInputs = [][]byte{inputBytes([]int64{3, 4}), inputBytes([]int64{100, 3})}

const emuStepsBudget = 21377

// verdictCases are the TestRewriteValidatedVerdicts programs, clean and
// under every corruption, plus the degraded, divergence, parse-error and
// scope-rejection paths.
func verdictCases(t *testing.T) []verdictCase {
	t.Helper()
	var cases []verdictCase
	programs := prog.Suites(0.03)[0].Programs
	if len(programs) > 3 {
		programs = programs[:3]
	}
	for _, p := range programs {
		bin, err := cc.Compile(p.Module, cc.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		opts := ValidateOptions{}
		for _, in := range p.Inputs {
			opts.Inputs = append(opts.Inputs, inputBytes(in))
		}
		cases = append(cases, verdictCase{name: p.Name + "/clean", bin: bin, opts: opts})
		for _, c := range corruptions {
			mutant := c.mutate(append([]byte(nil), bin...))
			cases = append(cases, verdictCase{name: p.Name + "/" + c.name, bin: mutant, opts: opts})
		}
	}

	bin := matrixBinary(t)
	cases = append(cases,
		verdictCase{
			name:  "degraded/serialize-fault",
			bin:   bin,
			opts:  ValidateOptions{Inputs: [][]byte{inputBytes([]int64{3, 4})}},
			fault: &harden.Fault{Point: harden.FPSerialize, Times: 1},
		},
		verdictCase{
			name: "degraded/emu-steps",
			bin:  bin,
			opts: ValidateOptions{
				Options: Options{Budget: harden.Budget{EmuSteps: emuStepsBudget}},
				Inputs:  emuStepsInputs,
			},
		},
		verdictCase{
			name: "divergence/trap-every-entry",
			bin:  bin,
			opts: ValidateOptions{
				Options: Options{Instrument: trapEveryEntry},
				Inputs:  [][]byte{inputBytes([]int64{1, 2})},
			},
		},
		verdictCase{name: "parse-error/not-an-elf", bin: []byte("not an elf")},
	)
	noCET := cc.DefaultConfig()
	noCET.CET = false
	plain, err := cc.Compile(trapModule(), noCET)
	if err != nil {
		t.Fatalf("compile without CET: %v", err)
	}
	return append(cases, verdictCase{name: "scope/non-cet", bin: plain})
}

// run validates the case and renders its manifest line.
func (c verdictCase) run(t *testing.T) string {
	t.Helper()
	if c.fault != nil {
		defer harden.NewPlan(*c.fault).Arm()()
	}
	res, err := RewriteValidated(c.bin, c.opts)
	if err != nil {
		t.Fatalf("%s: RewriteValidated: %v", c.name, err)
	}
	return verdictLine(c.name, res)
}

// verdictLine renders one manifest line: name, verdict, attempts,
// SHA-256 of the returned binary, and the quoted reason.
func verdictLine(name string, res *ValidatedResult) string {
	sum := sha256.Sum256(res.Binary)
	return fmt.Sprintf("%s %s %d %s %q\n", name, res.Verdict, res.Attempts, hex.EncodeToString(sum[:]), res.Reason)
}

// TestVerdictManifest pins validated rewrites' outcomes byte for byte:
// verdict, attempt count, returned binary and reason of every case must
// match the checked-in manifest. Changes to how the differential runs
// are scheduled must not move a line. Run with -update to regenerate it
// after a deliberate change.
func TestVerdictManifest(t *testing.T) {
	var got bytes.Buffer
	for _, c := range verdictCases(t) {
		got.WriteString(c.run(t))
	}
	if *update {
		if err := os.WriteFile(verdictManifestPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictManifestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// TestRewriteValidatedConcurrent validates one shared binary from
// several goroutines at once; every call must reach the outcome a lone
// call reaches. Run under -race it also checks that the validator's own
// goroutines share nothing unsynchronized across calls.
func TestRewriteValidatedConcurrent(t *testing.T) {
	bin := matrixBinary(t)
	cases := []verdictCase{
		{name: "validated", bin: bin, opts: ValidateOptions{Inputs: emuStepsInputs}},
		{name: "degraded", bin: bin, opts: ValidateOptions{
			Options: Options{Budget: harden.Budget{EmuSteps: emuStepsBudget}},
			Inputs:  emuStepsInputs,
		}},
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = c.run(t)
	}
	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, c := range cases {
				res, err := RewriteValidated(c.bin, c.opts)
				if err != nil {
					t.Errorf("worker %d, %s: %v", w, c.name, err)
					return
				}
				got[w] = append(got[w], verdictLine(c.name, res))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != len(want) {
			continue // already reported
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Errorf("worker %d: got %s want %s", w, got[w][i], want[i])
			}
		}
	}
}

// TestRewriteValidatedJoinsOriginalRuns: the goroutine running the
// original's inputs has exited by the time RewriteValidated returns, on
// every return path. Many inputs keep a goroutine that was not joined
// busy well past the grace period.
func TestRewriteValidatedJoinsOriginalRuns(t *testing.T) {
	bin := matrixBinary(t)
	inputs := make([][]byte, 64)
	for i := range inputs {
		inputs[i] = inputBytes([]int64{int64(i), 4})
	}
	for _, tc := range []struct {
		name  string
		opts  func() Options
		fault *harden.Fault
		// want is the verdict, "canceled" or "panic".
		want string
	}{
		{name: "validated", opts: func() Options { return Options{} }, want: "validated"},
		{name: "stage-error", opts: func() Options { return Options{} },
			fault: &harden.Fault{Point: harden.FPSerialize}, want: "fallback"},
		{name: "divergence", opts: func() Options { return Options{Instrument: trapEveryEntry} }, want: "fallback"},
		{name: "canceled", opts: func() Options {
			ch := make(chan struct{})
			return Options{Cancel: ch, Instrument: func(es []serialize.Entry, _ *asm.Symtab) ([]serialize.Entry, error) {
				close(ch)
				return es, nil
			}}
		}, want: "canceled"},
		{name: "panic", opts: func() Options {
			return Options{Instrument: func([]serialize.Entry, *asm.Symtab) ([]serialize.Entry, error) {
				panic("user hook exploded")
			}}
		}, want: "panic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			got := func() (got string) {
				if tc.fault != nil {
					defer harden.NewPlan(*tc.fault).Arm()()
				}
				defer func() {
					if recover() != nil {
						got = "panic"
					}
				}()
				res, err := RewriteValidated(bin, ValidateOptions{Options: tc.opts(), Inputs: inputs})
				if errors.Is(err, harden.ErrCanceled) {
					return "canceled"
				}
				if err != nil {
					return err.Error()
				}
				return string(res.Verdict)
			}()
			if got != tc.want {
				t.Fatalf("outcome %q, want %q", got, tc.want)
			}
			// A joined goroutine may still be unwinding its last return;
			// allow for that, but not for a run of the remaining inputs.
			deadline := time.Now().Add(20 * time.Millisecond)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after RewriteValidated returned, %d before", runtime.NumGoroutine(), base)
				}
				runtime.Gosched()
			}
		})
	}
}

// TestOriginalRunPanicReachesCaller: a panic on the goroutine running the
// original is raised again on the caller's goroutine, where a recovery
// such as the farm's per-job isolation can see it, instead of killing
// the process.
func TestOriginalRunPanicReachesCaller(t *testing.T) {
	v := &validator{inputs: [][]byte{nil}, quit: make(chan struct{})}
	v.start(nil, 1000) // loading a nil file panics
	defer v.stop()
	defer func() {
		if recover() == nil {
			t.Fatal("the original run's panic was not raised on the caller's goroutine")
		}
	}()
	v.original(0, 1000)
}
