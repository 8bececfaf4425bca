package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mini"
)

const manifestPath = "testdata/rewrite_manifest.txt"

// manifestCase is one binary whose rewrite the manifest pins.
type manifestCase struct {
	name string
	m    *mini.Module
	cfg  cc.Config
}

// manifestCases is the pinned corpus: both trap modules under all 48
// build configurations, plus the C++-shaped fuzzer regressions checked
// in under internal/gen/testdata/regress.
func manifestCases(t *testing.T) []manifestCase {
	t.Helper()
	var cases []manifestCase
	for _, mod := range []*mini.Module{core.TrapModule(), core.CxxTrapModule()} {
		for _, ccfg := range cc.AllConfigs() {
			cases = append(cases, manifestCase{mod.Name + "/" + ccfg.String(), mod, ccfg})
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "gen", "testdata", "regress", "*.mini"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in regressions found")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen.ParseRegression(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cases = append(cases, manifestCase{"regress/" + filepath.Base(path), c.Module, c.Config})
	}
	return cases
}

// TestRewriteManifest pins the rewriter's output byte for byte: the
// SHA-256 of every rewritten binary in the corpus must match the
// checked-in manifest. Stage-internal refactors (buffer sizing, in-place
// insertion, item representation, decode paths) must not move a single
// byte. Run with -update to regenerate the manifest after a deliberate
// output change.
func TestRewriteManifest(t *testing.T) {
	var got bytes.Buffer
	for _, c := range manifestCases(t) {
		bin, err := cc.Compile(c.m, c.cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		res, err := core.Rewrite(bin, core.Options{})
		if err != nil {
			t.Fatalf("%s: rewrite: %v", c.name, err)
		}
		sum := sha256.Sum256(res.Binary)
		fmt.Fprintf(&got, "%s %s\n", hex.EncodeToString(sum[:]), c.name)
	}
	if *core.Update {
		if err := os.WriteFile(manifestPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantSums := parseManifest(t, want)
	gotSums := parseManifest(t, got.Bytes())
	for name, sum := range gotSums {
		switch w, ok := wantSums[name]; {
		case !ok:
			t.Errorf("%s: not in manifest", name)
		case w != sum:
			t.Errorf("%s: rewritten binary changed: sha256 %s, manifest %s", name, sum, w)
		}
	}
	for name := range wantSums {
		if _, ok := gotSums[name]; !ok {
			t.Errorf("%s: in manifest but not rewritten", name)
		}
	}
}

func parseManifest(t *testing.T, data []byte) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed manifest line %q", sc.Text())
		}
		sums[name] = sum
	}
	return sums
}
