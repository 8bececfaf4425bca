package gen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mini"
	"repro/internal/prog"
)

// TestGenerateDeterministic: the same seed must yield byte-identical
// programs and inputs — the fuzzer's reproducibility contract.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := Generate("d", seed, prog.Shapes["small"], AllFeatures())
		b := Generate("d", seed, prog.Shapes["small"], AllFeatures())
		if mini.Format(a.Module) != mini.Format(b.Module) {
			t.Fatalf("seed %d: modules differ between runs", seed)
		}
		if !reflect.DeepEqual(a.Inputs, b.Inputs) {
			t.Fatalf("seed %d: inputs differ between runs", seed)
		}
	}
}

// TestGenerateFeaturesPresent: each requested feature must leave its
// syntactic trace in the module, and absent features must not.
func TestGenerateFeaturesPresent(t *testing.T) {
	cases := []struct {
		feats  Features
		want   []string
		absent []string
	}{
		{Features{LandingPads: true}, []string{"try {", "throw ", "catch"}, []string{" tls", " intext", "virt cx_obj"}},
		{Features{VTables: true}, []string{"functable cx_vt", "virt cx_obj"}, []string{"try {", " tls", " intext"}},
		{Features{TLS: true}, []string{"cx_tls", " tls"}, []string{"try {", " intext", "virt cx_obj"}},
		{Features{DataInText: true}, []string{"cx_isl", " intext"}, []string{"try {", " tls", "virt cx_obj"}},
		{AllFeatures(), []string{"try {", " tls", " intext", "virt cx_obj"}, nil},
	}
	for _, c := range cases {
		p := Generate("f", 9, prog.Shapes["small"], c.feats)
		src := mini.Format(p.Module)
		for _, tok := range c.want {
			if !strings.Contains(src, tok) {
				t.Errorf("feats %s: missing %q", c.feats, tok)
			}
		}
		for _, tok := range c.absent {
			if strings.Contains(src, tok) {
				t.Errorf("feats %s: unexpected %q", c.feats, tok)
			}
		}
	}
}

// TestGenerateValidated: generated programs must run cleanly under the
// reference interpreter on all their inputs — Generate's postcondition.
func TestGenerateValidated(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, feats := DeriveCase(seed)
		p := Generate("v", seed, prog.Shapes["small"], feats)
		if len(p.Inputs) == 0 {
			t.Fatalf("seed %d: no inputs", seed)
		}
		for i, in := range p.Inputs {
			if _, err := mini.Run(p.Module, in); err != nil {
				t.Fatalf("seed %d input %d: %v", seed, i, err)
			}
		}
	}
}

// TestDeriveCaseSpansAxes: the seed→case map must reach the stripped
// and no-unwind axes and multiple feature sets within a modest window.
func TestDeriveCaseSpansAxes(t *testing.T) {
	var stripped, nounwind int
	feats := map[string]bool{}
	cfgs := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		cfg, f := DeriveCase(seed)
		if cfg.Stripped {
			stripped++
		}
		if !cfg.EhFrame {
			nounwind++
		}
		feats[f.String()] = true
		cfgs[cfg.String()] = true
	}
	if stripped == 0 || nounwind == 0 {
		t.Fatalf("axes unreached in 64 seeds: stripped=%d nounwind=%d", stripped, nounwind)
	}
	if len(feats) < 6 || len(cfgs) < 12 {
		t.Fatalf("poor case diversity: %d feature sets, %d configs", len(feats), len(cfgs))
	}
}

var update = flag.Bool("update", false, "rewrite testdata/fuzz_report.txt")

const fuzzReportPath = "testdata/fuzz_report.txt"

// formatReport renders the deterministic part of a findings-free
// campaign report: its verdict counts, the coverage-growth curve and
// the sorted coverage keys, one per line.
func formatReport(r *Report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "seeds %d start %d\n", r.Seeds, r.Start)
	fmt.Fprintf(&b, "verdicts validated=%d degraded=%d fallback=%d\n", r.Validated, r.Degraded, r.Fallback)
	fmt.Fprintf(&b, "growth %s\n", strings.Trim(fmt.Sprint(r.Growth), "[]"))
	for _, k := range r.CoverageKeys {
		fmt.Fprintf(&b, "key %s\n", k)
	}
	return b.Bytes()
}

// TestFuzzDeterministic: two runs of the same small campaign must
// produce identical reports, findings and coverage included, and the
// report must match testdata/fuzz_report.txt byte for byte. Run with
// -update to regenerate the golden after a deliberate change to the
// generator, the pipeline or the coverage keys.
func TestFuzzDeterministic(t *testing.T) {
	opts := FuzzOptions{Seeds: 3, Start: 101, Shape: prog.Shapes["small"]}
	a := Fuzz(opts)
	b := Fuzz(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ between identical runs:\n%+v\n%+v", a, b)
	}
	if len(a.Findings) != 0 {
		t.Fatalf("unexpected findings: %+v", a.Findings)
	}
	if a.Validated != opts.Seeds {
		t.Fatalf("validated=%d, want %d", a.Validated, opts.Seeds)
	}
	if a.Coverage < 10 {
		t.Fatalf("coverage=%d, want >=10 keys", a.Coverage)
	}
	for i := 1; i < len(a.Growth); i++ {
		if a.Growth[i] < a.Growth[i-1] {
			t.Fatalf("coverage shrank: %v", a.Growth)
		}
	}

	got := formatReport(a)
	if *update {
		if err := os.WriteFile(fuzzReportPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fuzzReportPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from %s\ngot:\n%s\nwant:\n%s", fuzzReportPath, got, want)
	}
}
