package gen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/eval"
	"repro/internal/mini"
	"repro/internal/prog"
)

// engines are the differential execution engines every case runs under.
var engines = []emu.EngineKind{emu.EngineInterpreter, emu.EngineTiered}

// FuzzOptions configure a fuzzing campaign.
type FuzzOptions struct {
	// Seeds is the number of consecutive seeds to run, starting at
	// Start. Each seed fully determines its program, build
	// configuration, and feature set.
	Seeds int
	Start int64

	// Shape sizes the generated programs (prog.Shapes flavours).
	Shape prog.Shape

	// OutDir, when non-empty, receives a minimized .mini regression
	// file per finding.
	OutDir string

	// Core are the pipeline options of each rewrite.
	Core core.Options

	// MinimizeBudget bounds the predicate evaluations spent shrinking
	// one finding. Zero means 300.
	MinimizeBudget int
}

// Finding is one divergence (or pipeline degradation) the fuzzer
// observed, with its minimized reproducer.
type Finding struct {
	Seed      int64  `json:"seed"`
	Kind      string `json:"kind"`
	Config    string `json:"config"`
	Features  string `json:"features"`
	Detail    string `json:"detail"`
	Minimized string `json:"minimized,omitempty"`
	Path      string `json:"path,omitempty"`
}

// Report is the outcome of a campaign. Identical options always produce
// an identical report (no timestamps, no machine state).
type Report struct {
	Seeds     int       `json:"seeds"`
	Start     int64     `json:"start"`
	Findings  []Finding `json:"findings"`
	Validated int       `json:"validated"`
	Degraded  int       `json:"degraded"`
	Fallback  int       `json:"fallback"`

	// Coverage is the number of distinct behaviour keys observed
	// (config, feature set, verdict, census classes, stats buckets);
	// Growth is the cumulative key count after each seed, the
	// coverage-growth curve.
	Coverage     int      `json:"coverage"`
	CoverageKeys []string `json:"coverage_keys"`
	Growth       []int    `json:"growth"`
}

// DeriveCase maps a seed to its build configuration and feature set,
// spanning the 48-config matrix plus the stripped and no-unwind axes.
func DeriveCase(seed int64) (cc.Config, Features) {
	r := rand.New(rand.NewSource(seed*0x9E3779B9 + 0xF022))
	all := cc.AllConfigs()
	cfg := all[r.Intn(len(all))]
	feats := Features{
		LandingPads: r.Intn(4) != 0,
		VTables:     r.Intn(4) != 0,
		TLS:         r.Intn(4) != 0,
		DataInText:  r.Intn(4) != 0,
	}
	if r.Intn(4) == 0 {
		cfg.Stripped = true
		feats.Stripped = true
	}
	if r.Intn(8) == 0 {
		cfg.EhFrame = false
	}
	return cfg, feats
}

// caseRun is the full differential outcome of one (module, config,
// inputs) case.
type caseRun struct {
	kind   string // "" when sound end to end
	detail string
	bin    []byte
	vres   *core.ValidatedResult
}

// runCase compiles the module, differentially executes the original on
// both engines against the reference interpreter, rewrites under
// validation, and differentially executes the rewritten binary. It
// returns the first failure class, or kind "" for a fully sound case.
// This same function is the minimizer's predicate: a candidate
// reproduces the finding iff it yields the same kind.
func runCase(m *mini.Module, cfg cc.Config, inputs [][]int64, copts core.Options) caseRun {
	type ref struct {
		out  []byte
		exit int
		in   []byte
	}
	refs := make([]ref, 0, len(inputs))
	for _, in := range inputs {
		want, err := mini.Run(m, in)
		if err != nil {
			return caseRun{kind: "interp-error", detail: err.Error()}
		}
		refs = append(refs, ref{out: want.Output, exit: want.Exit, in: inputBytes(in)})
	}
	bin, err := cc.Compile(m, cfg)
	if err != nil {
		return caseRun{kind: "compile-error", detail: err.Error()}
	}
	diff := func(image []byte, stage string) (string, string) {
		for _, eng := range engines {
			for i, rf := range refs {
				res, err := emu.Run(image, emu.Options{Input: rf.in, Engine: eng})
				if err != nil {
					return stage + "-error", fmt.Sprintf("engine %s input %d: %v", eng, i, err)
				}
				if res.Exit != rf.exit {
					return stage + "-diverge", fmt.Sprintf("engine %s input %d: exit %d want %d", eng, i, res.Exit, rf.exit)
				}
				if string(res.Stdout) != string(rf.out) {
					return stage + "-diverge", fmt.Sprintf("engine %s input %d: stdout %d bytes want %d", eng, i, len(res.Stdout), len(rf.out))
				}
			}
		}
		return "", ""
	}
	if kind, detail := diff(bin, "orig"); kind != "" {
		return caseRun{kind: kind, detail: detail, bin: bin}
	}
	byteIns := make([][]byte, len(refs))
	for i, rf := range refs {
		byteIns[i] = rf.in
	}
	vres, err := core.RewriteValidated(bin, core.ValidateOptions{Options: copts, Inputs: byteIns})
	if err != nil {
		return caseRun{kind: "rewrite-error", detail: err.Error(), bin: bin}
	}
	if vres.Verdict != core.VerdictValidated {
		return caseRun{
			kind:   "rewrite-" + string(vres.Verdict),
			detail: vres.Reason,
			bin:    bin,
			vres:   vres,
		}
	}
	if kind, detail := diff(vres.Binary, "rewritten"); kind != "" {
		return caseRun{kind: kind, detail: detail, bin: bin, vres: vres}
	}
	return caseRun{bin: bin, vres: vres}
}

// Fuzz runs a coverage-guided differential campaign: for each seed it
// generates a C++-shaped program, executes original and rewritten
// binaries on both emulator engines against the reference interpreter,
// and on any divergence minimizes the case into a regression. The
// report is deterministic in the options.
func Fuzz(opts FuzzOptions) *Report {
	rep := &Report{Seeds: opts.Seeds, Start: opts.Start}
	cov := make(map[string]bool)
	budget := opts.MinimizeBudget
	if budget <= 0 {
		budget = 300
	}
	for n := 0; n < opts.Seeds; n++ {
		seed := opts.Start + int64(n)
		cfg, feats := DeriveCase(seed)
		p := Generate(fmt.Sprintf("fz_%d", seed), seed, opts.Shape, feats)
		run := runCase(p.Module, cfg, p.Inputs, opts.Core)

		cov["config:"+cfg.String()] = true
		cov["feats:"+feats.String()] = true
		if run.vres != nil {
			switch run.vres.Verdict {
			case core.VerdictValidated:
				rep.Validated++
			case core.VerdictDegraded:
				rep.Degraded++
			case core.VerdictFallback:
				rep.Fallback++
			}
			cov["verdict:"+string(run.vres.Verdict)] = true
			if run.vres.Result != nil {
				s := run.vres.Result.Stats
				cov["stats:tables:"+bucket(s.Tables)] = true
				cov["stats:entries:"+bucket(s.TableEntries)] = true
				cov["stats:multibase:"+bucket(s.MultiBase)] = true
				cov["stats:pins:"+bucket(s.PinnedPointers)] = true
				cov["stats:codeptrs:"+bucket(s.CodePointers)] = true
			}
		}
		if run.bin != nil {
			if census, err := eval.Classify(run.bin); err == nil {
				cov["census:lp:"+bucket(census.LandingPads)] = true
				cov["census:vtruns:"+bucket(census.VTableRuns)] = true
				cov["census:s1:"+bucket(census.S1)] = true
				cov["census:s2:"+bucket(census.S2)] = true
				if census.HasTLS {
					cov["census:tls"] = true
				}
				if census.Stripped {
					cov["census:stripped"] = true
				}
				if !census.EhFrame {
					cov["census:nounwind"] = true
				}
			}
		}
		rep.Growth = append(rep.Growth, len(cov))

		if run.kind == "" {
			continue
		}
		f := Finding{
			Seed:     seed,
			Kind:     run.kind,
			Config:   cfg.String(),
			Features: feats.String(),
			Detail:   run.detail,
		}
		min := Minimize(ShrinkCase{Module: p.Module, Config: cfg, Inputs: p.Inputs}, budget,
			func(c ShrinkCase) bool {
				return runCase(c.Module, c.Config, c.Inputs, opts.Core).kind == run.kind
			})
		f.Minimized = FormatRegression(p.Name, min)
		if opts.OutDir != "" {
			path := filepath.Join(opts.OutDir, fmt.Sprintf("%s_%s.mini", p.Name, run.kind))
			if err := os.WriteFile(path, []byte(f.Minimized), 0o644); err == nil {
				f.Path = path
			}
		}
		rep.Findings = append(rep.Findings, f)
	}
	rep.Coverage = len(cov)
	rep.CoverageKeys = make([]string, 0, len(cov))
	for k := range cov {
		rep.CoverageKeys = append(rep.CoverageKeys, k)
	}
	sort.Strings(rep.CoverageKeys)
	return rep
}

// bucket coarsens a counter into a stable coverage class.
func bucket(n int) string {
	switch {
	case n <= 0:
		return "0"
	case n == 1:
		return "1"
	case n <= 3:
		return "2-3"
	case n <= 7:
		return "4-7"
	default:
		return "8+"
	}
}

func inputBytes(vals []int64) []byte {
	buf := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		for b := 0; b < 8; b++ {
			buf = append(buf, byte(uint64(v)>>(8*b)))
		}
	}
	return buf
}
