// Package eval regenerates the paper's evaluation: Tables 2-5 and the
// measurements of §4.2.4, §4.3.1, and §4.3.3. Absolute numbers differ
// from the paper (the substrate is an emulator, the corpus synthetic),
// but the shape — who completes, who passes, who is fast, where the
// over-approximation costs go — is the reproduction target.
package eval

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/baseline/ddisasm"
	"repro/internal/baseline/egalito"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/prog"
)

// Case is one built benchmark binary.
type Case struct {
	Suite   string
	Prog    *prog.Program
	Config  cc.Config
	Bin     []byte
	PerTest bool
}

// BuildCorpus compiles the benchmark suites under the given configs.
func BuildCorpus(scale float64, configs []cc.Config) ([]Case, error) {
	var out []Case
	for _, s := range prog.Suites(scale) {
		for _, p := range s.Programs {
			for _, cfg := range configs {
				bin, err := cc.Compile(p.Module, cfg)
				if err != nil {
					return nil, fmt.Errorf("eval: %s/%s: %w", p.Name, cfg, err)
				}
				out = append(out, Case{
					Suite: s.Name, Prog: p, Config: cfg, Bin: bin,
					PerTest: s.PerProgramTests,
				})
			}
		}
	}
	return out, nil
}

func inputBytes(vals []int64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// suriRewriter adapts SURI to the baseline interface.
type suriRewriter struct{ opts core.Options }

func (s suriRewriter) Name() string { return "suri" }
func (s suriRewriter) Rewrite(bin []byte) (*baseline.Result, error) {
	res, err := core.Rewrite(bin, s.opts)
	if err != nil {
		return nil, err
	}
	return &baseline.Result{Binary: res.Binary}, nil
}

// SURI returns the SURI pipeline as a Rewriter.
func SURI() baseline.Rewriter { return suriRewriter{} }

// Ddisasm returns the Ddisasm-like baseline.
func Ddisasm() baseline.Rewriter { return ddisasm.New() }

// Egalito returns the Egalito-like baseline.
func Egalito() baseline.Rewriter { return egalito.New() }

// ToolStats is one tool's aggregate over a set of cases (a Table 2/3 cell
// group: completion rate, rewriting time, pass rate).
type ToolStats struct {
	Cases     int
	Completed int
	TimeSec   float64

	// Per-test accounting (SPEC style).
	Tests       int
	TestsPassed int

	// Whole-suite accounting (Coreutils/Binutils style): true iff every
	// rewritten binary passed everything.
	SuitePass bool
}

// Fin is the completion percentage.
func (t ToolStats) Fin() float64 {
	if t.Cases == 0 {
		return 0
	}
	return 100 * float64(t.Completed) / float64(t.Cases)
}

// Pass is the per-test pass percentage over completed rewrites.
func (t ToolStats) Pass() float64 {
	if t.Tests == 0 {
		return 0
	}
	return 100 * float64(t.TestsPassed) / float64(t.Tests)
}

// caseOut is the result of evaluating one case: rewrite timing and
// per-test verdicts, computed identically at any worker count so the
// fold into ToolStats is bit-identical.
type caseOut struct {
	elapsed int64 // rewrite time, ns
	failed  bool  // the rewrite itself errored
	tests   int
	passed  int
}

// runCase rewrites one case and checks behaviour on every test input.
func runCase(tool baseline.Rewriter, c Case) caseOut {
	var o caseOut
	start := clock.Now()
	res, err := tool.Rewrite(c.Bin)
	o.elapsed = clock.Now() - start
	if err != nil {
		o.failed = true
		return o
	}
	for _, in := range c.Prog.Inputs {
		o.tests++
		if behaviourMatches(c.Bin, res.Binary, in) {
			o.passed++
		}
	}
	return o
}

// RunTool evaluates one rewriter over the cases (the §4.1.2
// methodology: the rewritten binary must reproduce the original's
// stdout and exit code on every test input). It records a span for the
// tool's pass over the cases and feeds per-tool counters and a
// rewrite-time histogram into col (nil disables collection). The
// per-case work (rewrite + emulated test runs) fans out over pool (nil
// runs it inline). Per-case results are folded in case order — never
// completion order — so every ToolStats field, including the float
// TimeSec sum, is bit-identical at any worker count under the same
// clock. Canceling ctx skips the not-yet-started cases (each is then
// accounted as an incomplete rewrite).
func RunTool(ctx context.Context, tool baseline.Rewriter, cases []Case, col *obs.Collector, pool *farm.Pool) ToolStats {
	span := col.Trace().Start("run:" + tool.Name())
	vals, errs := pool.Map(ctx, "eval:"+tool.Name(), len(cases), func(i int) farm.Task {
		c := cases[i]
		return func(context.Context) (any, error) { return runCase(tool, c), nil }
	})
	outs := make([]caseOut, len(cases))
	for i := range outs {
		if errs[i] != nil {
			// Pool-level failure (cancel, panic): account the case as an
			// incomplete rewrite, like a tool error.
			outs[i] = caseOut{failed: true}
			continue
		}
		outs[i] = vals[i].(caseOut)
	}
	st := ToolStats{SuitePass: true}
	reg := col.Metrics()
	prefix := "eval." + tool.Name() + "."
	for _, o := range outs {
		st.Cases++
		st.TimeSec += float64(o.elapsed) / 1e9
		reg.Histogram(prefix+"rewrite_us", RewriteTimeBounds).Observe(o.elapsed / 1e3)
		if o.failed {
			st.SuitePass = false
			reg.Counter(prefix + "failed").Inc()
			continue
		}
		st.Completed++
		st.Tests += o.tests
		st.TestsPassed += o.passed
		if o.passed != o.tests {
			st.SuitePass = false
		}
	}
	reg.Counter(prefix + "cases").Add(int64(st.Cases))
	reg.Counter(prefix + "completed").Add(int64(st.Completed))
	reg.Counter(prefix + "tests").Add(int64(st.Tests))
	reg.Counter(prefix + "tests_passed").Add(int64(st.TestsPassed))
	span.SetInt("cases", int64(st.Cases))
	span.SetInt("completed", int64(st.Completed))
	span.End()
	return st
}

// RewriteTimeBounds are the histogram buckets (microseconds) for
// per-case rewriting time.
var RewriteTimeBounds = []int64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000}

func behaviourMatches(orig, rewritten []byte, input []int64) bool {
	a, err := emu.Run(orig, emu.Options{Input: inputBytes(input)})
	if err != nil {
		return false
	}
	// A symbolization error can send the rewritten binary into an endless
	// loop; bound it by a generous multiple of the original's work so a
	// broken binary costs milliseconds, not the full step budget.
	b, err := emu.Run(rewritten, emu.Options{
		Input:    inputBytes(input),
		MaxSteps: a.Steps*10 + 1_000_000,
	})
	if err != nil {
		return false
	}
	return bytes.Equal(a.Stdout, b.Stdout) && a.Exit == b.Exit
}

// Filter returns the cases satisfying keep.
func Filter(cases []Case, keep func(Case) bool) []Case {
	var out []Case
	for _, c := range cases {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// ConfigsFor maps the paper's two evaluation hosts to compiler sets:
// the older host (Ubuntu 18.04, used for the Egalito comparison) has
// GCC 11 / Clang 10; the newer one (Ubuntu 20.04, Ddisasm) has
// GCC 13 / Clang 13.
func ConfigsFor(host string) []cc.Config {
	var comps []cc.CompilerStyle
	switch host {
	case "ubuntu18.04":
		comps = []cc.CompilerStyle{cc.GCC11, cc.Clang10}
	case "ubuntu20.04":
		comps = []cc.CompilerStyle{cc.GCC13, cc.Clang13}
	default:
		comps = []cc.CompilerStyle{cc.GCC11, cc.GCC13, cc.Clang10, cc.Clang13}
	}
	var out []cc.Config
	for _, comp := range comps {
		for _, link := range []cc.LinkerStyle{cc.LD, cc.Gold} {
			for _, opt := range []cc.OptLevel{cc.O0, cc.O1, cc.O2, cc.O3, cc.Os, cc.Ofast} {
				out = append(out, cc.Config{
					Compiler: comp, Linker: link, Opt: opt, CET: true, EhFrame: true,
				})
			}
		}
	}
	return out
}

// IsGCCCase groups cases by compiler family for the table rows.
func IsGCCCase(c Case) bool { return c.Config.Compiler.IsGCC() }
