// Command suridump disassembles a binary and prints its superset CFG:
// harvested entries, blocks, discovered jump tables, and (with -dis) the
// full instruction listing.
//
// Usage:
//
//	suridump [-dis] [-no-ehframe] prog.bin
//	suridump -entries [-instrument pass,pass,...] [-no-ehframe] prog.bin
//
// -entries runs the full rewrite pipeline instead and prints the final
// symbolized stream S' one entry per line, each prefixed with a
// provenance mark:
//
//	' '  instruction copied from the original binary
//	'~'  entry synthesized by the pipeline (trap pads, table isolation)
//	'+'  entry inserted by an -instrument pass
//
// so instrumentation placement is auditable without running anything.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/instr"
)

func main() {
	dis := flag.Bool("dis", false, "print full disassembly")
	noEh := flag.Bool("no-ehframe", false, "ignore call frame information")
	entries := flag.Bool("entries", false, "rewrite and print the final S' stream with provenance marks")
	instrument := flag.String("instrument", "", "standard instrumentation passes to apply in -entries mode (comma-separated)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: suridump [flags] prog.bin")
		os.Exit(2)
	}
	bin, err := os.ReadFile(flag.Arg(0))
	fail(err)

	if *entries {
		dumpEntries(bin, *instrument, *noEh)
		return
	}

	f, err := elfx.Read(bin)
	fail(err)

	fmt.Printf("entry %#x, PIE %v, CET %v\n", f.Entry, f.IsPIE(), f.HasCET())
	for _, s := range f.Sections {
		fmt.Printf("  section %-20s %#8x..%#8x %s\n", s.Name, s.Addr, s.Addr+s.Size, secFlags(s))
	}

	opts := cfg.DefaultOptions()
	opts.UseEhFrame = !*noEh
	g, err := cfg.Build(f, opts)
	fail(err)

	st := g.Stats()
	fmt.Printf("\nsuperset CFG: %d entries, %d blocks (%d invalid), %d instructions\n",
		st.Entries, st.Blocks, st.Invalid, st.Instructions)
	fmt.Printf("jump tables: %d (%d need dynamic base identification), %d over-approximated entries\n\n",
		st.Tables, st.MultiBase, st.TableEntries)

	for _, t := range g.Tables {
		fmt.Printf("table: jmp @%#x, load @%#x, base reg %s, bases %#x\n",
			t.JmpAddr, t.LoadAddr, t.BaseReg, t.Bases)
		for _, b := range t.Bases {
			fmt.Printf("  base %#x: %d entries\n", b, len(t.Entries[b]))
		}
	}

	if *dis {
		fmt.Println()
		for _, b := range g.SortedBlocks() {
			marker := ""
			if g.IsEntry(b.Addr) {
				marker = "  <entry>"
			}
			if b.Invalid {
				marker += "  <invalid>"
			}
			fmt.Printf("block %#x%s\n", b.Addr, marker)
			addrs := b.InstAddrs()
			for i, in := range b.Insts {
				fmt.Printf("  %#8x: %s\n", addrs[i], in)
			}
		}
	}
}

// dumpEntries rewrites the binary and prints S' with provenance marks.
func dumpEntries(bin []byte, passList string, noEh bool) {
	// AllowNonCET keeps the dump usable on binaries outside the rewrite
	// scope — this is an inspection tool, not a soundness claim.
	opts := core.Options{IgnoreEhFrame: noEh, AllowNonCET: true}
	if passList != "" {
		passes, err := instr.ParseList(passList)
		fail(err)
		opts.Passes = passes
	}
	res, err := core.Rewrite(bin, opts)
	fail(err)
	for i, e := range res.SPrime {
		mark := byte(' ')
		switch {
		case res.InstrMarks != nil && res.InstrMarks[i]:
			mark = '+'
		case e.Synth:
			mark = '~'
		}
		syms := res.Graph.Syms
		for _, l := range e.Labels(syms) {
			fmt.Printf("%c %s:\n", mark, syms.Name(l))
		}
		if e.Target != 0 {
			if e.Addend != 0 {
				fmt.Printf("%c   %s\t# -> %s%+d\n", mark, e.Inst, syms.Name(e.Target), e.Addend)
			} else {
				fmt.Printf("%c   %s\t# -> %s\n", mark, e.Inst, syms.Name(e.Target))
			}
		} else {
			fmt.Printf("%c   %s\n", mark, e.Inst)
		}
	}
}

func secFlags(s *elfx.Section) string {
	out := ""
	if s.Flags&elfx.SHFWrite != 0 {
		out += "W"
	}
	if s.Flags&elfx.SHFExecinstr != 0 {
		out += "X"
	}
	if s.Type == elfx.SHTNobits {
		out += " (nobits)"
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "suridump:", err)
		os.Exit(1)
	}
}
