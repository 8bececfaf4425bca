// Command surirun executes an ELF binary in the repository's x86-64
// emulator, with CET enforcement when the binary declares IBT+SHSTK.
//
// Usage:
//
//	surirun [-in file] [-bias 0x10000000] [-steps] [-no-cet] [-profile] [-profile-json]
//	        [-heat-json file] [-cov] [-cov-out file]
//	        [-engine auto|interpreter|tiered] [-seed-heat file] [-tier-stats]
//	        prog.bin
//
// -engine selects the execution engine: auto or tiered (the default)
// runs the tiered superblock engine with interpreter fallback,
// interpreter forces the baseline. -seed-heat feeds a prior run's -heat-json export
// back in so its hot blocks translate on first encounter; -tier-stats
// prints the tiered engine's translation/exit counters to stderr.
//
// -profile prints an execution profile to stderr (opcode histogram,
// CET event counters, block heat, syscall summary); -profile-json
// prints the same profile as JSON (also to stderr, keeping stdout for
// the emulated program's output); -heat-json writes the block-heat map
// alone to a file ("-" for stderr) under the versioned suri.heat.v1
// schema — the stable feed for hot-block tooling.
//
// -cov captures the binary's instrumentation payload (the .suri.instr
// section a `suri -instrument ...` rewrite appends — coverage bitmaps,
// block counters, call logs) after the run and prints a summary to
// stderr; -cov-out additionally dumps the raw payload bytes to a file
// (implies -cov). Both fail if the binary carries no .suri.instr
// section. The payload reflects the program state at exit, whether the
// run succeeded or died.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/elfx"
	"repro/internal/emu"
)

func main() {
	inFile := flag.String("in", "", "stdin bytes (file path)")
	bias := flag.Uint64("bias", 0, "PIE load bias (0 = default)")
	steps := flag.Bool("steps", false, "print retired instruction count")
	noCET := flag.Bool("no-cet", false, "disable CET enforcement")
	profile := flag.Bool("profile", false, "print execution profile to stderr")
	profileJSON := flag.Bool("profile-json", false, "print execution profile as JSON to stderr")
	heatJSON := flag.String("heat-json", "", "write the suri.heat.v1 block-heat export to this file (\"-\" = stderr)")
	cov := flag.Bool("cov", false, "capture the .suri.instr payload after the run; summary to stderr")
	covOut := flag.String("cov-out", "", "dump the captured .suri.instr payload bytes to this file (implies -cov)")
	engine := flag.String("engine", "auto", "execution engine: auto or tiered (the tiered engine), interpreter")
	seedHeat := flag.String("seed-heat", "", "pre-translate hot blocks from this suri.heat.v1 file (a prior -heat-json export at the same bias)")
	tierStats := flag.Bool("tier-stats", false, "print tiered-engine counters to stderr after the run")
	flag.Parse()

	engineKind, err := emu.ParseEngine(*engine)
	fail(err)

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: surirun [flags] prog.bin")
		os.Exit(2)
	}
	bin, err := os.ReadFile(flag.Arg(0))
	fail(err)

	var input []byte
	if *inFile != "" {
		input, err = os.ReadFile(*inFile)
		fail(err)
	}

	opts := emu.Options{
		Bias: *bias, Input: input, Shadow: true, DisableCET: *noCET,
		Profile: *profile || *profileJSON || *heatJSON != "",
		Engine:  engineKind,
	}
	if *seedHeat != "" {
		data, rerr := os.ReadFile(*seedHeat)
		fail(rerr)
		opts.HeatSeed, rerr = emu.ParseHeatSeed(data)
		fail(rerr)
	}
	if *cov || *covOut != "" {
		opts.Capture = instrRange(bin)
	}

	res, err := emu.Run(bin, opts)
	if res != nil {
		os.Stdout.Write(res.Stdout)
		os.Stderr.Write(res.Stderr)
	}
	if *tierStats && res != nil {
		dumpTierStats(res.Tier)
	}
	if *cov || *covOut != "" {
		dumpPayload(res)
		if *covOut != "" && res != nil {
			fail(os.WriteFile(*covOut, res.Captured, 0o644))
		}
	}
	fail(err)
	if *steps {
		fmt.Fprintf(os.Stderr, "[%d instructions retired]\n", res.Steps)
	}
	if *profile {
		fmt.Fprint(os.Stderr, res.Prof.Text())
	}
	if *profileJSON {
		js, jerr := res.Prof.JSON()
		fail(jerr)
		fmt.Fprintln(os.Stderr, string(js))
	}
	if *heatJSON != "" {
		js, jerr := res.Prof.HeatJSON()
		fail(jerr)
		if *heatJSON == "-" {
			fmt.Fprintln(os.Stderr, string(js))
		} else {
			fail(os.WriteFile(*heatJSON, append(js, '\n'), 0o644))
		}
	}
	os.Exit(res.Exit)
}

// instrRange locates the .suri.instr payload section; its link-time
// address range is what the emulator captures at exit.
func instrRange(bin []byte) emu.Range {
	f, err := elfx.Read(bin)
	fail(err)
	for _, s := range f.Sections {
		if s.Name == ".suri.instr" {
			return emu.Range{Start: s.Addr, End: s.Addr + s.Size}
		}
	}
	fail(fmt.Errorf("%s has no .suri.instr section (rewrite it with suri -instrument first)", flag.Arg(0)))
	panic("unreachable")
}

// dumpTierStats summarizes the tiered engine's counters on stderr; a
// forced-interpreter run says so.
func dumpTierStats(t *emu.TierStats) {
	if t == nil {
		fmt.Fprintln(os.Stderr, "[tier: interpreted run, no tiered-engine state]")
		return
	}
	fmt.Fprintf(os.Stderr,
		"[tier: %d translations (%d insts), %d block execs, %d tier steps, cache %d hit/%d miss, %d invalidations]\n",
		t.Translations, t.TransInsts, t.Blocks, t.TierSteps, t.CacheHits, t.CacheMisses, t.Invalidations)
	fmt.Fprintf(os.Stderr,
		"[tier exits: fall %d, branch %d, side %d, error %d, exit %d; guards: budget %d, cet %d]\n",
		t.ExitFall, t.ExitBranch, t.ExitSide, t.ExitError, t.ExitExit, t.GuardBudget, t.GuardCET)
}

// dumpPayload summarizes the captured payload on stderr.
func dumpPayload(res *emu.Result) {
	if res == nil {
		return
	}
	nz := 0
	for _, b := range res.Captured {
		if b != 0 {
			nz++
		}
	}
	fmt.Fprintf(os.Stderr, "[instr payload: %d bytes captured, %d non-zero]\n", len(res.Captured), nz)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "surirun:", err)
		os.Exit(1)
	}
}
