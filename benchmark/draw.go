package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/gen"
	"repro/internal/mini"
	"repro/internal/prog"
)

// The three canonical program shapes, drawn in equal numbers.
const numShapes = 3

var shapeNames = [numShapes]string{"small", "medium", "large"}

// Run-length targets of validate-corpus programs, in instructions a
// program's original binaries retire on average over all of its test
// inputs. A draw spreads
// its targets evenly over [minRunSteps, maxRunSteps] and sets each
// program's main-loop iteration count to meet its target, so run length
// varies smoothly and identically from seed to seed.
const (
	minRunSteps = 50_000
	maxRunSteps = 1_000_000
)

// drawSpec sizes a draw: modules per shape, binaries per module (each
// under another build configuration), and whether run lengths are
// spread for execution-bound validation.
type drawSpec struct {
	perShape  int
	configs   int
	spreadRun bool
}

// Case is one drawn binary, the program it was compiled from, and that
// program's test inputs as read-syscall streams. Binaries compiled from
// one program share Prog.
type Case struct {
	Name   string
	Bin    []byte
	Prog   *gen.Program
	Inputs [][]byte
}

// newDraw builds the seeded draw: perShape modules of every shape from
// the screened seed pool, each compiled under `configs` build
// configurations. Configurations walk seeded permutations of the 48
// compiler x linker x optimization builds, so every draw of 48 or more
// binaries spans all of them; the stripped and no-unwind axes and the
// C++-shaped features come from gen.DeriveCase. The same seed always
// yields the same cases in the same order.
func newDraw(seed int64, spec drawSpec) ([]*Case, error) {
	r := rand.New(rand.NewSource(seed))
	type module struct {
		stratum []int64 // the pool seeds the module is drawn from
		pick    int     // the drawn seed's index in stratum
		shape   int
		target  uint64 // run-length target, 0 for the shape's own loop
	}
	var mods []module
	for s := 0; s < numShapes; s++ {
		if spec.perShape > len(pool[s]) {
			return nil, fmt.Errorf("draw: %d %s modules requested, pool holds %d", spec.perShape, shapeNames[s], len(pool[s]))
		}
		// One program from each of perShape equal size strata of the
		// size-ordered pool, so every draw has the same size profile.
		targets := r.Perm(spec.perShape)
		for k := 0; k < spec.perShape; k++ {
			lo, hi := k*len(pool[s])/spec.perShape, (k+1)*len(pool[s])/spec.perShape
			m := module{stratum: pool[s][lo:hi], pick: r.Intn(hi - lo), shape: s}
			if spec.spreadRun {
				m.target = minRunSteps
				if spec.perShape > 1 {
					m.target += uint64(targets[k]) * (maxRunSteps - minRunSteps) / uint64(spec.perShape-1)
				}
			}
			mods = append(mods, m)
		}
	}
	r.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })

	builds := cc.AllConfigs()
	var order []int
	var cases []*Case
	for _, m := range mods {
		var triples []cc.Config
		for v := 0; v < spec.configs; v++ {
			if len(order) == 0 {
				order = r.Perm(len(builds))
			}
			triples = append(triples, builds[order[0]])
			order = order[1:]
		}
		p, cfgs, err := drawModule(m.stratum, m.pick, m.shape, triples, m.target)
		if err != nil {
			return nil, fmt.Errorf("draw: %w", err)
		}
		var inputs [][]byte
		for _, in := range p.Inputs {
			inputs = append(inputs, inputBytes(in))
		}
		for _, cfg := range cfgs {
			bin, err := cc.Compile(p.Module, cfg)
			if err != nil {
				return nil, fmt.Errorf("draw: %s: %w", p.Name, err)
			}
			cases = append(cases, &Case{
				Name: p.Name + "/" + cfg.String(),
				Bin:  bin, Prog: p, Inputs: inputs,
			})
		}
	}
	return cases, nil
}

// drawModule generates the program of stratum[pick] and its build
// configurations, one per build triple; a variant's stripped and
// no-unwind axes come from its own derived case. With a run-length
// target it rescales the program's main loop, and when no loop bound
// meets the target (the program's work does not scale with its main
// loop) it takes the next seed of the stratum instead, so no draw holds
// a program that runs many times longer than the longest target.
func drawModule(stratum []int64, pick, shape int, triples []cc.Config, target uint64) (*gen.Program, []cc.Config, error) {
	for k := 0; k < len(stratum); k++ {
		seed := stratum[(pick+k)%len(stratum)]
		_, feats := gen.DeriveCase(seed)
		name := fmt.Sprintf("%s_%d", shapeNames[shape], seed)
		p := gen.Generate(name, seed, prog.Shapes[shapeNames[shape]], feats)
		var cfgs []cc.Config
		for v, b := range triples {
			cfg, _ := gen.DeriveCase(seed + int64(v)*1_000_003)
			cfg.Compiler, cfg.Linker, cfg.Opt = b.Compiler, b.Linker, b.Opt
			cfgs = append(cfgs, cfg)
		}
		if target == 0 {
			return p, cfgs, nil
		}
		ok, err := setRunLength(p, cfgs, target)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		if ok {
			return p, cfgs, nil
		}
	}
	return nil, nil, fmt.Errorf("no %s program of the stratum meets run length %d", shapeNames[shape], target)
}

// runLengthRounds bounds how often setRunLength rescales a loop. Most
// programs meet their target after one rescale; one whose work per
// iteration grows with the loop counter needs a few more.
const runLengthRounds = 6

// setRunLength rescales the main loop of p so that its binaries, built
// under cfgs, retire about target instructions each on average over all
// test inputs. It measures the shape's own loop, scales linearly, and
// rescales from each new measurement, within the loop bounds already
// known to run short of and past the target, until the run length is
// within a fifth of the target. It keeps the closest loop bound it tried
// and reports whether that is within a factor of two of the target.
// Without the later rounds a program whose per-iteration work grows with
// the loop counter misses its target several times over. It gives up
// early on a program whose run length repeats under another loop bound:
// there the loop does not drive the run. Rescaled programs stay well
// defined: generated programs mask every index and guard every divisor,
// and the loop bound changes no call depth.
func setRunLength(p *gen.Program, cfgs []cc.Config, target uint64) (bool, error) {
	main, at := mainLoop(p.Module)
	if main == nil {
		return false, fmt.Errorf("no main loop")
	}
	orig := main.Body[at].(mini.While)
	want := float64(target) * float64(len(cfgs))
	steps, err := runLength(p, cfgs, 0)
	if err != nil {
		return false, fmt.Errorf("measuring run length: %w", err)
	}
	cond := orig.Cond.(mini.Bin)
	iters := float64(cond.R.(mini.Const))
	cur, best, bestMiss := orig, orig, math.Inf(1)
	lo, hi := 0.0, math.Inf(1)
	seen := map[uint64]bool{}
	for round := 0; ; round++ {
		// steps is 0 when the run went past the limit.
		if steps == 0 || float64(steps) > want {
			hi = iters
		} else {
			lo = iters
		}
		if steps > 0 {
			if miss := math.Abs(math.Log(float64(steps) / want)); miss < bestMiss {
				best, bestMiss = cur, miss
			}
			if seen[steps] {
				break
			}
			seen[steps] = true
		}
		if round == runLengthRounds || bestMiss <= math.Log(1.2) {
			break
		}
		next := math.Inf(1)
		if steps > 0 {
			next = math.Round(iters * want / float64(steps))
		}
		if !(next > lo && next < hi) {
			next = math.Round(math.Sqrt(math.Max(lo, 1) * hi))
		}
		if !(next > lo && next < hi) {
			break
		}
		iters = next
		cond.R = mini.Const(int64(iters))
		cur = mini.While{Cond: cond, Body: orig.Body}
		main.Body[at] = cur
		if steps, err = runLength(p, cfgs, uint64(2*want)); err != nil {
			steps = 0
		}
	}
	main.Body[at] = best
	return bestMiss <= math.Log(2), nil
}

// runLength compiles p under each of cfgs and returns the instructions
// the binaries retire over all test inputs; limit > 0 fails a longer run.
func runLength(p *gen.Program, cfgs []cc.Config, limit uint64) (uint64, error) {
	var steps uint64
	for _, cfg := range cfgs {
		bin, err := cc.Compile(p.Module, cfg)
		if err != nil {
			return 0, err
		}
		for _, in := range p.Inputs {
			res, err := emu.Run(bin, emu.Options{Input: inputBytes(in), MaxSteps: limit})
			if err != nil {
				return 0, err
			}
			steps += res.Steps
		}
	}
	if limit > 0 && steps > limit {
		return 0, fmt.Errorf("run length %d exceeds %d", steps, limit)
	}
	return steps, nil
}

// mainLoop finds main's `while i < N` loop, the one prog.Generate emits.
func mainLoop(m *mini.Module) (*mini.Func, int) {
	for _, f := range m.Funcs {
		if f.Name != "main" {
			continue
		}
		for i, st := range f.Body {
			if w, ok := st.(mini.While); ok {
				if c, ok := w.Cond.(mini.Bin); ok && c.Op == mini.Lt && c.L == mini.Var("i") {
					if _, ok := c.R.(mini.Const); ok {
						return f, i
					}
				}
			}
		}
	}
	return nil, 0
}

// inputBytes encodes test-input words as the little-endian stream the
// compiled programs read.
func inputBytes(vals []int64) []byte {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		for b := 0; b < 8; b++ {
			buf = append(buf, byte(uint64(v)>>(8*b)))
		}
	}
	return buf
}
