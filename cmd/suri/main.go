// Command suri rewrites a CET-enabled x86-64 PIE binary with the SURI
// pipeline. The output binary preserves every original section at its
// original address and executes from a freshly symbolized copy of the
// code.
//
// Usage:
//
//	suri [-o out.bin] [-ignore-ehframe] [-instrument pass,pass,...] [-stats]
//	     [-sprime] [-trace] [-stats-json]
//	     [-validate] [-validate-input a,b,...]
//	     input.bin
//
// -instrument applies standard instrumentation passes (coverage,
// counters, calltrace, shadowstack — comma-separated) to the
// symbolized stream before emission; an unknown pass name fails like
// any other instrument-stage error ("suri: instrument: ...").
//
// -trace prints a per-stage span tree of the pipeline (the Figure 4
// stages, with nested CFG-builder sub-spans); -stats-json prints the
// full trace + metric registry as JSON.
//
// -validate runs the guarded pipeline: the rewritten binary is executed
// differentially against the original in the emulator (under each
// -validate-input vector, comma-separated int64 words, repeatable; with
// none given, one empty-input run). On divergence or a pipeline failure
// the rewrite is retried under widened resource budgets, and if no
// attempt validates the ORIGINAL binary is written out unmodified —
// never a silently wrong rewrite. Validation runs on the emulator's
// tiered engine; with -stats-json the run's emu.tier_* counters land
// in the metric registry.
//
// Exit codes: 1 — the rewrite (or file I/O) failed; the message names
// the pipeline stage that died (e.g. "suri: cfg: ..."); 2 — usage
// error; 3 — -validate fell back to the original binary (the output
// file is a byte-identical copy of the input). Produce inputs with
// surigen, run outputs with surirun.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	suri "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// inputList is a repeatable -validate-input flag: each use is one input
// vector of comma-separated int64s, encoded as the little-endian word
// stream the emulator's stdin expects.
type inputList [][]byte

func (l *inputList) String() string { return fmt.Sprintf("%d vectors", len(*l)) }

func (l *inputList) Set(s string) error {
	var words []byte
	if s != "" {
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fmt.Errorf("bad input word %q: %v", f, err)
			}
			words = binary.LittleEndian.AppendUint64(words, uint64(v))
		}
	}
	*l = append(*l, words)
	return nil
}

func main() {
	out := flag.String("o", "", "output path (default: <input>.suri)")
	ignoreEh := flag.Bool("ignore-ehframe", false, "do not use call frame information (§4.3.3)")
	instrument := flag.String("instrument", "", "comma-separated standard instrumentation passes (coverage,counters,calltrace,shadowstack)")
	stats := flag.Bool("stats", false, "print pipeline statistics")
	sprime := flag.Bool("sprime", false, "print the symbolized assembly S' to stdout")
	trace := flag.Bool("trace", false, "print the per-stage pipeline span tree")
	statsJSON := flag.Bool("stats-json", false, "print the trace and metric registry as JSON")
	validate := flag.Bool("validate", false, "differentially validate the rewrite; fall back to the original on failure (exit 3)")
	var vinputs inputList
	flag.Var(&vinputs, "validate-input", "comma-separated int64 input words for one validation run (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: suri [flags] input.bin")
		fmt.Fprintln(os.Stderr, "exit codes: 1 rewrite/I-O error (message names the failing stage, e.g. \"cfg: ...\"), 2 usage, 3 validation fallback")
		os.Exit(2)
	}
	in := flag.Arg(0)
	bin, err := os.ReadFile(in)
	fail(err)

	var col *obs.Collector
	if *trace || *statsJSON {
		col = obs.New()
	}
	opts := suri.Options{IgnoreEhFrame: *ignoreEh, Obs: col}
	if *instrument != "" {
		passes, perr := suri.ParsePasses(*instrument)
		if perr != nil {
			// A bad pass list dies exactly like an in-pipeline instrument
			// failure, so scripts key on one stage name either way.
			fail(&suri.StageError{Stage: "instrument", Err: perr})
		}
		opts.Passes = passes
	}

	var (
		outBin []byte
		res    *suri.Result
		vres   *suri.ValidatedResult
	)
	if *validate {
		vres, err = suri.RewriteValidated(bin, suri.ValidateOptions{Options: opts, Inputs: vinputs})
		fail(err)
		outBin, res = vres.Binary, vres.Result
	} else {
		res, err = suri.Rewrite(bin, opts)
		fail(err)
		outBin = res.Binary
	}

	dest := *out
	if dest == "" {
		dest = in + ".suri"
	}
	fail(os.WriteFile(dest, outBin, 0o755))
	fmt.Printf("rewrote %s (%d bytes) -> %s (%d bytes)\n", in, len(bin), dest, len(outBin))
	if vres != nil {
		fmt.Printf("verdict: %s (attempts %d)\n", vres.Verdict, vres.Attempts)
		if vres.Reason != "" {
			fmt.Printf("reason: %s\n", vres.Reason)
		}
	}

	if *stats && res != nil {
		s := res.Stats
		fmt.Printf("blocks %d, entries %d, instructions %d (copied %d + added %d)\n",
			s.Blocks, s.Entries, s.Instructions, s.CopiedInstructions, s.AddedInstructions)
		fmt.Printf("pointers: %d code (endbr64-verified), %d pinned to original layout\n",
			s.CodePointers, s.PinnedPointers)
		fmt.Printf("jump tables: %d symbolized, %d need dynamic base identification, %d entries isolated\n",
			s.Tables, s.MultiBase, s.TableEntries)
		fmt.Printf("relocations retargeted: %d; new text at %#x\n",
			s.AdjustedRelas, res.Layout.NewTextAddr)
	}
	if *trace {
		fmt.Print(col.Trace().Text())
		fmt.Print(col.Metrics().Text())
	}
	if *statsJSON {
		js, err := col.JSON()
		fail(err)
		fmt.Println(string(js))
	}
	if *sprime && res != nil {
		fmt.Print(core.Render(res.SPrime, res.Graph.Syms, nil))
	}
	if vres != nil && vres.Verdict == suri.VerdictFallback {
		os.Exit(3)
	}
}

// fail exits 1 on error. Pipeline errors already carry the "suri:
// <stage>:" prefix (core.StageError), so only unprefixed errors (file
// I/O) get one added — the stage name is what retry/skip tooling and
// humans both key on.
func fail(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "suri: ") {
		msg = "suri: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
