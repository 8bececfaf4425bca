// Command benchmark measures the SURI reproduction end to end and per
// layer on three workloads: rewrite-corpus (suri.Rewrite), validate-
// corpus (suri.RewriteValidated) and serve-mix (a fleet coordinator in
// front of two farm workers). See NOTES.md for the workloads, the
// metrics and how to run it.
//
//	go run . --workload rewrite-corpus --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. The command
// exits non-zero when any timed op fails or any output disagrees with
// the reference interpreter.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64) (*workload, error){
	"rewrite-corpus":  func(seed int64) (*workload, error) { return newRewriteCorpus(seed, rewriteDraw) },
	"validate-corpus": func(seed int64) (*workload, error) { return newValidateCorpus(seed, validateDraw) },
	"serve-mix":       func(seed int64) (*workload, error) { return newServeMix(seed, serveDraw) },
}

func main() {
	name := flag.String("workload", "", "workload: rewrite-corpus, validate-corpus or serve-mix")
	seed := flag.Int64("seed", 1, "seed of the draw")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced driver and prints per-layer metrics")
	screenN := flag.Int("screen", 0, "screen `n` cheap case seeds per shape and print pool.go")
	flag.Parse()
	if *screenN > 0 {
		if err := writePool(os.Stdout, *screenN); err != nil {
			fatal(err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// workload is one benchmark workload over a draw of cases. Op n runs
// case seq[n % len(seq)]; clients goroutines issue ops in a closed loop.
type workload struct {
	cases   []*Case
	seq     []int
	clients int

	// op runs op n and returns the binary the system produced.
	op func(n int) ([]byte, error)

	// tracedOp runs op n with per-layer timing, recording per-op samples.
	tracedOp func(n int, rec record) ([]byte, error)

	// ready, when set, runs once after the warm-up: the corpus workloads
	// check that the traced driver reproduces every warm-up output byte
	// for byte; serve-mix snapshots its obs registries.
	ready func(ck *checker) error

	// layers, when set, adds workload-wide per-layer totals (obs registry
	// deltas) once the timed phase has ended.
	layers func(lt *layerTrace)

	// close releases servers and pools.
	close func()
}

// caseAt returns the index of the case op n runs.
func (w *workload) caseAt(n int) int { return w.seq[n%len(w.seq)] }

// record holds one op's per-layer samples, keyed by metric name.
type record map[string]float64

// time runs f and adds its wall time to rec[name], in milliseconds.
func (rec record) time(name string, f func()) {
	t := time.Now()
	f()
	rec[name] += ms(time.Since(t))
}

// layerTrace gathers the per-op records of a traced run, and figures
// that only exist for the run as a whole (registry ratios).
type layerTrace struct {
	samples map[string][]float64
	sums    map[string]float64
	whole   map[string]float64
}

func (lt *layerTrace) add(rec record) {
	for k, v := range rec {
		lt.samples[k] = append(lt.samples[k], v)
		lt.sums[k] += v
	}
}

// result is what one run prints.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`

	lines []string // human-readable report, printed before the JSON
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = &metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	js, _ := json.Marshal(r)
	fmt.Fprintln(f, string(js))
}

// run sets the workload up setupReps times, warms it up over one full
// cycle, measures whole cycles for the given time, and checks every
// output against the reference interpreter.
func run(mk func(int64) (*workload, error), seed int64, budget time.Duration, traced bool) (*result, error) {
	var setups []float64
	var w *workload
	for i := 0; i < setupReps; i++ {
		if w != nil && w.close != nil {
			w.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if w, err = mk(seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if w.close != nil {
		defer w.close()
	}
	res := &result{Metrics: map[string]*metric{}}
	res.note("workload: %d distinct binaries, %d ops per cycle, %d client(s), GOMAXPROCS %d",
		len(w.cases), len(w.seq), w.clients, runtime.GOMAXPROCS(0))

	// Warm-up: one untimed cycle fills caches and finishes lazy set-up;
	// its outputs become the reference every later output must equal.
	ck := newChecker(w.cases)
	warm := loop(w, 0, func(n int) error {
		out, err := w.op(n)
		if err == nil && !ck.record(w.caseAt(n), out) {
			err = errors.New("output differs from the case's first output")
		}
		return err
	})
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.ops, warm.firstErr)
	}
	if w.ready != nil {
		if err := w.ready(ck); err != nil {
			return nil, err
		}
	}

	// Collect and return freed memory to the OS, so the peak below covers
	// the timed phase and not garbage left by set-up and warm-up.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	lt := &layerTrace{samples: map[string][]float64{}, sums: map[string]float64{}, whole: map[string]float64{}}
	var ltMu sync.Mutex
	cpu0, alloc0 := cpuTime(), heapAllocBytes()
	timed := loop(w, budget, func(n int) error {
		var out []byte
		var err error
		if traced {
			rec := record{}
			out, err = w.tracedOp(n, rec)
			ltMu.Lock()
			lt.add(rec)
			ltMu.Unlock()
		} else {
			out, err = w.op(n)
		}
		if err == nil && !ck.record(w.caseAt(n), out) {
			err = errors.New("output differs from the case's first output")
		}
		return err
	})
	cpu, alloc := cpuTime()-cpu0, heapAllocBytes()-alloc0
	// A single peak over the run is its largest GC-timing outlier; the
	// median of the per-cycle peaks repeats across runs.
	rss := median(timed.cyclePeaks)
	if w.layers != nil {
		w.layers(lt)
	}

	ref := ck.reference()
	failed := 0
	for i, c := range timed.perCase {
		if ref.bad[i] {
			failed += c.ops
		} else {
			failed += c.failed
		}
	}
	// Any failed op, not only a reference mismatch, makes the run
	// incorrect: an op that errored, fell back, or returned a binary
	// other than the reference-checked one must not pass as a fast op.
	res.Attempted, res.Failed = timed.ops, failed
	res.Correct = ref.badPairs == 0 && failed == 0
	for _, e := range ref.errs {
		res.note("reference mismatch: %s", e)
	}
	if timed.firstErr != nil {
		res.note("first failed op: %v", timed.firstErr)
	}
	res.note("timed phase: %d ops in %d cycle(s), %.3f s; fail_share %.4f (%d of %d)",
		timed.ops, timed.ops/len(w.seq), timed.elapsed.Seconds(), share(float64(failed), float64(timed.ops)), failed, timed.ops)

	if traced {
		summarizeLayers(res, lt)
		return res, nil
	}
	ops := float64(timed.ops)
	res.set("setup_s", median(setups), "s")
	res.set("throughput_ops_s", ops/timed.elapsed.Seconds(), "1/s")
	res.set("latency_p50_ms", quantile(timed.lat, 0.5), "ms")
	res.set("latency_p90_ms", quantile(timed.lat, 0.9), "ms")
	res.set("cpu_ms_per_op", ms(cpu)/ops, "ms")
	res.set("alloc_mb_per_op", float64(alloc)/(1<<20)/ops, "MB")
	res.set("peak_rss_mb", rss, "MB")
	res.set("size_ratio", ref.sizeRatio, "ratio")
	res.set("overhead_ratio", ref.overhead, "ratio")
	return res, nil
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	ops, failed int
	firstErr    error
	elapsed     time.Duration
	lat         []float64 // per-op latency, ms
	perCase     []caseStats
	cyclePeaks  []float64 // peak RSS of each cycle, MiB
}

type caseStats struct{ ops, failed int }

// loop runs whole cycles of w.seq with w.clients closed-loop clients. It
// starts another cycle only while the last cycle's duration still fits
// in the budget, so every run measures the same mix; a zero budget runs
// exactly one cycle. At each cycle's end it records the cycle's peak RSS
// and resets it.
func loop(w *workload, budget time.Duration, op func(n int) error) loopStats {
	st := loopStats{perCase: make([]caseStats, len(w.cases))}
	var mu sync.Mutex
	next, stopped := 0, false
	start := time.Now()
	cycleStart := start
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next > 0 && next%len(w.seq) == 0 {
			st.cyclePeaks = append(st.cyclePeaks, peakRSSMB())
			// run has already reset the peak once and failed loudly if it
			// could not; a later failure only merges two cycles' peaks.
			_ = resetPeakRSS()
			now := time.Now()
			if now.Sub(start)+now.Sub(cycleStart) > budget {
				stopped = true
			}
			cycleStart = now
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := take()
				if !ok {
					return
				}
				t := time.Now()
				err := op(n)
				lat := ms(time.Since(t))
				i := w.caseAt(n)
				mu.Lock()
				st.ops++
				st.lat = append(st.lat, lat)
				st.perCase[i].ops++
				if err != nil {
					st.failed++
					st.perCase[i].failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. Each is printed on every workload; a layer that does no work
// on a workload reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"elfx.read_ms", "ms"},
	{"cfg.build_ms", "ms"},
	{"cfg.allocs", "count"},
	{"cfg.decoded_insts", "count"},
	{"cfg.blocks", "count"},
	{"serialize.ms", "ms"},
	{"repair.ms", "ms"},
	{"repair.audit_ms", "ms"},
	{"symbolize.ms", "ms"},
	{"symbolize.table_entries", "count"},
	{"emit.ms", "ms"},
	{"emit.allocs", "count"},
	{"emit.relax_rounds", "count"},
	{"pipeline.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"emu.load_ms", "ms"},
	{"emu.orig_run_ms", "ms"},
	{"emu.rewritten_run_ms", "ms"},
	{"emu.steps", "count"},
	{"emu.insts_per_s", "1/s"},
	{"emu.tier_translations", "count"},
	{"emu.tier_step_share", "share"},
	{"emu.latency_share", "share"},
	{"validate.rewrite_share", "share"},
	{"validate.attempts", "count"},
	{"farm.handler_ms", "ms"},
	{"farm.cache_hit_share", "share"},
	{"farm.coalesced_share", "share"},
	{"farm.executions_per_miss", "count"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.cache_hit_share", "share"},
	{"fleet.forward_share", "share"},
	{"fleet.shed_share", "share"},
}

// summarizeLayers turns a traced run's samples into the per-layer
// metrics: per-op medians, except rates and shares computed from totals
// and the latency difference between traced and untraced ops.
func summarizeLayers(res *result, lt *layerTrace) {
	for _, m := range perLayer {
		res.set(m.name, median(lt.samples[m.name]), m.unit)
	}
	s := lt.sums
	runMS := s["emu.orig_run_ms"] + s["emu.rewritten_run_ms"]
	res.Metrics["emu.insts_per_s"].Value = share(s["emu.steps"], runMS/1000)
	res.Metrics["emu.tier_step_share"].Value = share(s["emu.tier_steps"], s["emu.steps"])
	untraced, traced := median(lt.samples["lat.untraced_ms"]), median(lt.samples["lat.traced_ms"])
	res.Metrics["trace.overhead_ms"].Value = traced - untraced
	for k, v := range lt.whole {
		res.Metrics[k].Value = v
	}

	var parts []string
	for _, n := range stageNames {
		parts = append(parts, fmt.Sprintf("%s %.3f", strings.TrimSuffix(strings.TrimSuffix(n, "_ms"), ".ms"), median(lt.samples[n])))
	}
	if len(lt.samples["lat.untraced_ms"]) > 0 {
		res.note("op latency p50: untraced %.3f ms, traced %.3f ms (%d ops each)", untraced, traced, len(lt.samples["lat.traced_ms"]))
	}
	if self, ok := lt.samples["pipeline.self_ms"]; ok {
		stages := median(lt.samples["stage.sum_ms"])
		res.note("rewrite stages (p50 ms): %s", strings.Join(parts, ", "))
		res.note("stage sum %.3f + pipeline self %.3f = %.3f ms vs untraced p50 %.3f ms; gap %.3f ms, tracing overhead %.3f ms",
			stages, median(self), stages+median(self), untraced, untraced-stages-median(self), traced-untraced)
	}
	if v := median(lt.samples["emu.latency_share"]); v > 0 {
		res.note("emulator share of validated-rewrite latency (p50): %.3f; rewrite share %.3f",
			v, median(lt.samples["validate.rewrite_share"]))
	}
}
