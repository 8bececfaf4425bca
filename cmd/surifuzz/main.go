// Command surifuzz runs the coverage-guided differential corpus fuzzer:
// seeded C++-shaped programs are compiled, rewritten, and executed on
// both emulator engines against the reference interpreter; divergences
// are minimized into .mini regression files.
//
// The output is deterministic for a given flag set (no timing, no
// machine state), so CI can run the same campaign twice and require
// byte-identical reports.
//
// Usage:
//
//	surifuzz [-seeds 25] [-start 1] [-shape small|medium|large] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/prog"
)

func main() {
	seeds := flag.Int("seeds", 25, "number of consecutive seeds to fuzz")
	start := flag.Int64("start", 1, "first seed")
	shape := flag.String("shape", "small", "program shape: small|medium|large")
	out := flag.String("out", "", "directory for minimized regression files")
	flag.Parse()

	sh, ok := prog.ShapeByName(*shape)
	if !ok {
		fmt.Fprintf(os.Stderr, "surifuzz: unknown shape %q\n", *shape)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "surifuzz: %v\n", err)
			os.Exit(1)
		}
	}

	rep := gen.Fuzz(gen.FuzzOptions{Seeds: *seeds, Start: *start, Shape: sh, OutDir: *out})

	fmt.Printf("surifuzz: seeds %d..%d shape=%s\n", *start, *start+int64(*seeds)-1, *shape)
	fmt.Printf("verdicts: validated=%d degraded=%d fallback=%d\n",
		rep.Validated, rep.Degraded, rep.Fallback)
	fmt.Printf("coverage: %d keys\n", rep.Coverage)
	fmt.Printf("findings: %d\n", len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Printf("  seed=%d kind=%s config=%s feats=%s detail=%s\n",
			f.Seed, f.Kind, f.Config, f.Features, f.Detail)
		if f.Path != "" {
			fmt.Printf("    regression: %s\n", f.Path)
		}
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}
