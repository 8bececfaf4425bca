package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// tiny keeps the tests fast: two modules of each shape.
var tiny = drawSpec{perShape: 2, configs: 2}

var tinyWorkloads = map[string]func(int64) (*workload, error){
	"rewrite-corpus": func(seed int64) (*workload, error) { return newRewriteCorpus(seed, tiny) },
	"validate-corpus": func(seed int64) (*workload, error) {
		return newValidateCorpus(seed, drawSpec{perShape: 2, configs: 1, spreadRun: true})
	},
	"serve-mix": func(seed int64) (*workload, error) { return newServeMix(seed, tiny) },
}

// TestMetricsMatchBenchmarkJSON checks that both kinds of run print
// exactly the metrics BENCHMARK.json declares, with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i, want := range []*[]decl{&spec.EndToEnd, &spec.PerLayer} {
		res, err := run(tinyWorkloads["rewrite-corpus"], 1, 0, i == 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(*want) {
			t.Errorf("trace %d: %d metrics printed, BENCHMARK.json declares %d", i, len(res.Metrics), len(*want))
		}
		for _, d := range *want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: %s (%s) declared, printed %+v", i, d.Name, d.Unit, m)
			}
		}
	}
}

func TestDrawIsSeeded(t *testing.T) {
	a, err := newDraw(7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newDraw(7, tiny)
	c, _ := newDraw(8, tiny)
	if len(a) != 12 || len(b) != len(a) {
		t.Fatalf("draw sizes %d, %d; want 12", len(a), len(b))
	}
	same := func(x, y []*Case) bool {
		for i := range x {
			if x[i].Name != y[i].Name || !bytes.Equal(x[i].Bin, y[i].Bin) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed gave different draws")
	}
	if same(a, c) {
		t.Fatal("seeds 7 and 8 gave the same draw")
	}
}

// TestCountsRepeat runs each workload twice on one seed: the
// deterministic end-to-end and per-layer figures must be bit-identical.
func TestCountsRepeat(t *testing.T) {
	for name, mk := range tinyWorkloads {
		var e2e, layers [2]*result
		for i := range e2e {
			var err error
			if e2e[i], err = run(mk, 3, 0, false); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if layers[i], err = run(mk, 3, 0, true); err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if !e2e[i].Correct || e2e[i].Failed != 0 || !layers[i].Correct || layers[i].Failed != 0 {
				t.Fatalf("%s: run %d failed: %v", name, i, e2e[i].lines)
			}
		}
		for _, m := range []string{"size_ratio", "overhead_ratio"} {
			if a, b := e2e[0].Metrics[m].Value, e2e[1].Metrics[m].Value; a != b || a <= 0 {
				t.Errorf("%s %s: %v then %v", name, m, a, b)
			}
		}
		for _, m := range []string{"cfg.decoded_insts", "symbolize.table_entries", "emu.steps"} {
			if a, b := layers[0].Metrics[m].Value, layers[1].Metrics[m].Value; a != b {
				t.Errorf("%s %s: %v then %v", name, m, a, b)
			}
		}
		if v := layers[0].Metrics["cfg.decoded_insts"].Value; v <= 0 {
			t.Errorf("%s: cfg.decoded_insts = %v", name, v)
		}
	}
}

// TestCheckIsLive makes one case's output the binary of another program,
// from the warm-up on or only in the timed phase: every workload's check
// must then fail.
func TestCheckIsLive(t *testing.T) {
	for name, mk := range tinyWorkloads {
		for _, timedOnly := range []bool{false, true} {
			corrupt := func(seed int64) (*workload, error) {
				w, err := mk(seed)
				if err != nil {
					return nil, err
				}
				// Another program's binary: it loads and runs, but prints
				// something else.
				target := w.seq[0]
				var wrong []byte
				for _, c := range w.cases {
					if c.Prog != w.cases[target].Prog {
						wrong = c.Bin
						break
					}
				}
				// warm is set once the warm-up has ended. Corrupting from
				// the warm-up on, the parity check would stop the run at
				// the first output; that case is about the reference check.
				warm := false
				if timedOnly {
					ready := w.ready
					w.ready = func(ck *checker) error {
						warm = true
						if ready == nil {
							return nil
						}
						return ready(ck)
					}
				} else {
					w.ready = nil
				}
				op := w.op
				w.op = func(n int) ([]byte, error) {
					out, err := op(n)
					if w.caseAt(n) == target && (warm || !timedOnly) {
						out = wrong
					}
					return out, err
				}
				return w, nil
			}
			res, err := run(corrupt, 3, 0, false)
			if err != nil {
				t.Fatalf("%s (timed only %v): %v", name, timedOnly, err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s (timed only %v): corrupted output passed the check (correct=%v, failed=%d)",
					name, timedOnly, res.Correct, res.Failed)
			}
		}
	}
}
