package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/emu"
	"repro/internal/gen"
	"repro/internal/mini"
)

// checker verifies the workload's outputs. The first binary the system
// returns for a case is kept; every later one must be byte-identical to
// it. reference then executes each kept binary on each of its case's
// inputs and compares the result with the reference interpreter's, so
// every output of the run is checked against mini.Run.
type checker struct {
	cases []*Case

	mu  sync.Mutex
	got [][]byte
}

func newChecker(cases []*Case) *checker {
	return &checker{cases: cases, got: make([][]byte, len(cases))}
}

// record reports whether out is consistent with case i's first output.
func (c *checker) record(i int, out []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.got[i] == nil {
		c.got[i] = out
		return true
	}
	return bytes.Equal(c.got[i], out)
}

// refResult is the outcome of the reference check.
type refResult struct {
	bad       []bool // cases whose kept binary misbehaved on some input
	badPairs  int
	errs      []string // the first few mismatches
	sizeRatio float64  // geometric mean of rewritten/original bytes
	overhead  float64  // geometric mean of rewritten/original retired instructions
}

// reference runs every kept binary and its original on each input in
// the emulator. A kept binary must reproduce the interpreter's stdout
// and exit status exactly; the original's run gives the step count the
// overhead ratio divides by.
func (c *checker) reference() refResult {
	res := refResult{bad: make([]bool, len(c.cases))}
	var sizes, overheads []float64
	refs := map[*gen.Program][]refRun{}
	for i, cs := range c.cases {
		out := c.got[i]
		if out == nil {
			continue
		}
		sizes = append(sizes, float64(len(out))/float64(len(cs.Bin)))
		want, ok := refs[cs.Prog]
		if !ok {
			want = interpret(cs.Prog)
			refs[cs.Prog] = want
		}
		for k, in := range cs.Inputs {
			orig, oerr := emu.Run(cs.Bin, emu.Options{Input: in})
			rew, rerr := emu.Run(out, emu.Options{Input: in})
			if err := matches(rew, rerr, want[k], cs, k); err != nil {
				res.bad[i] = true
				res.badPairs++
				if len(res.errs) < 5 {
					res.errs = append(res.errs, err.Error())
				}
				continue
			}
			if oerr != nil {
				continue
			}
			overheads = append(overheads, float64(rew.Steps)/float64(orig.Steps))
		}
	}
	res.sizeRatio = geomean(sizes)
	res.overhead = geomean(overheads)
	return res
}

// refRun is the reference interpreter's result on one input.
type refRun struct {
	res *mini.Result
	err error
}

// interpret runs p on each of its test inputs in the reference
// interpreter.
func interpret(p *gen.Program) []refRun {
	var out []refRun
	for _, in := range p.Inputs {
		res, err := mini.Run(p.Module, in)
		out = append(out, refRun{res, err})
	}
	return out
}

// matches compares one emulated run with the interpreter's result on
// the same input.
func matches(got *emu.Result, err error, want refRun, cs *Case, k int) error {
	if err != nil {
		return fmt.Errorf("%s input %d: %v", cs.Name, k, err)
	}
	if want.err != nil {
		return fmt.Errorf("%s input %d: reference interpreter: %v", cs.Name, k, want.err)
	}
	if got.Exit != want.res.Exit || !bytes.Equal(got.Stdout, want.res.Output) {
		return fmt.Errorf("%s input %d: exit %d (%d bytes), interpreter exit %d (%d bytes)",
			cs.Name, k, got.Exit, len(got.Stdout), want.res.Exit, len(want.res.Output))
	}
	return nil
}
