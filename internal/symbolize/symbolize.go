// Package symbolize implements SURI's Superset Symbolizer (§3.5): it
// rebuilds every over-approximated jump table in a freshly allocated
// read-only section (jump table isolation, §3.5.1) and redirects each
// dispatch sequence to its new table — unconditionally when the static
// analysis found a unique base, or with a runtime if-then-else chain when
// bogus data flows produced several candidates (dynamic base
// identification, §3.5.2).
package symbolize

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/harden"
	"repro/internal/repair"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// Result carries the new tables and the §4.3.1 statistics.
type Result struct {
	// TableItems are the .rodata items of the isolated jump tables.
	TableItems []asm.Item

	// Sets are additional absolute labels needed by the base-comparison
	// code (original table addresses); nil when no site has several
	// candidate bases.
	Sets map[string]uint64

	// Tables counts symbolized dispatch sites; MultiBase those that
	// needed a runtime if-then-else chain.
	Tables    int
	MultiBase int

	// NewEntries is the total entry count across isolated tables
	// (over-approximated); used for the §4.3.1 comparison.
	NewEntries int

	// Inserted counts synthesized instructions.
	Inserted int
}

// TableLabel names the isolated copy of the jump table at an original
// base address.
func TableLabel(base uint64) string { return "LJT_" + strconv.FormatUint(base, 16) }

// Symbolize rewrites the serialized stream S into S': dispatch fixes are
// inserted before each jump-table load, and the isolated tables are
// returned for placement in a new read-only section.
//
// Symbolize consumes its input: the fixes are inserted into entries'
// backing array (serialize.Serialize reserves the capacity for them), so
// the caller must use only the returned stream afterwards. When the
// graph has no tables the input is returned unchanged.
func Symbolize(entries []serialize.Entry, g *cfg.Graph) ([]serialize.Entry, *Result, error) {
	if err := harden.Inject(harden.FPSymbolize); err != nil {
		return nil, nil, fmt.Errorf("symbolize: %w", err)
	}
	res := &Result{}

	// Group dispatch sites by load address (two tables can share one
	// load through superset merging), unioning candidate bases.
	type site struct {
		baseReg x86.Reg
		bases   []uint64
	}
	sites := make(map[uint64]*site)
	emittedBase := make(map[uint64]bool)
	for _, t := range g.Tables {
		s := sites[t.LoadAddr]
		if s == nil {
			s = &site{baseReg: t.BaseReg}
			sites[t.LoadAddr] = s
		}
		for _, b := range t.Bases {
			if !containsU64(s.bases, b) {
				s.bases = append(s.bases, b)
			}
		}
	}

	// Emit isolated tables (deduplicated by base).
	for _, t := range g.Tables {
		for _, base := range t.Bases {
			if emittedBase[base] {
				continue
			}
			emittedBase[base] = true
			items, n, err := buildTable(g, base, t.Targets[base])
			if err != nil {
				return nil, nil, err
			}
			res.TableItems = append(res.TableItems, items...)
			res.NewEntries += n
		}
	}
	if len(sites) == 0 {
		return entries, res, nil
	}

	// First pass: build every base fix, in stream order, into one
	// exact-size buffer, noting where each goes.
	room := 0
	for _, s := range sites {
		room += fixLen(len(s.bases))
	}
	fixes := make([]serialize.Entry, 0, room)
	at := make([]insertion, 0, len(sites))
	labelN := 0
	newLabel := func(p string) asm.Sym {
		labelN++
		return g.Syms.Intern(fmt.Sprintf(".Lsym_%s%d", p, labelN))
	}
	for i := range entries {
		e := &entries[i]
		if e.Synth || e.Addr == 0 {
			continue
		}
		s, ok := sites[e.Addr]
		if !ok {
			continue
		}
		start := len(fixes)
		fixes = buildFix(fixes, g.Syms, s.baseReg, s.bases, res, newLabel)
		fix := fixes[start:]
		res.Inserted += len(fix)
		res.Tables++
		if len(s.bases) > 1 {
			res.MultiBase++
		}
		// The load may carry labels (the block can be split here by a
		// bogus over-approximated target, and the serializer may route
		// real control flow through an explicit jump to that label).
		// The fix must dominate every path into the load, so the labels
		// move onto its first instruction.
		serialize.MoveLabels(g.Syms, &fix[0], e)
		at = append(at, insertion{pos: i, start: start})
	}
	return insertFixes(entries, fixes, at), res, nil
}

// insertion places the fix that starts at fixes[start] (and runs to the
// next insertion's start) before stream entry pos.
type insertion struct{ pos, start int }

// insertFixes inserts the fixes into entries' backing array, growing it
// only if the reserved capacity falls short. Entries move from the back,
// each exactly once.
func insertFixes(entries, fixes []serialize.Entry, at []insertion) []serialize.Entry {
	n := len(entries)
	out := slices.Grow(entries, len(fixes))[:n+len(fixes)]
	r, w, end := n, len(out), len(fixes)
	for k := len(at) - 1; k >= 0; k-- {
		pos, fix := at[k].pos, fixes[at[k].start:end]
		w -= r - pos
		copy(out[w:], out[pos:r])
		w -= len(fix)
		copy(out[w:], fix)
		r, end = pos, at[k].start
	}
	return out
}

// fixLen is the length of buildFix's output for n candidate bases.
func fixLen(n int) int {
	if n == 1 {
		return 1
	}
	return 6*n - 3
}

func containsU64(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// buildTable emits the isolated table for one base: each entry is the
// offset of the (new-code) target from the new table's own label, the
// same compiler-generated S4 form as the original.
func buildTable(g *cfg.Graph, base uint64, targets []uint64) ([]asm.Item, int, error) {
	lbl := g.Syms.Intern(TableLabel(base))
	trap := g.Syms.Intern(serialize.TrapLabel)
	items := make([]asm.Item, 0, 2+len(targets))
	items = append(items, asm.AlignTo{N: 4}, asm.Label{Sym: lbl})
	for _, tgt := range targets {
		ref := trap
		if _, ok := g.Blocks[tgt]; ok {
			ref = serialize.Label(g.Syms, tgt)
		}
		items = append(items, asm.LongDiff{Plus: ref, Minus: lbl})
	}
	return items, len(targets), nil
}

// buildFix synthesizes the base-redirection code inserted before the
// table load. With one candidate base the fix is a single unconditional
// lea; with several it is the §3.5.2 if-then-else chain comparing the
// live base register against each original table address. The fix is
// appended to dst.
func buildFix(dst []serialize.Entry, syms *asm.Symtab, baseReg x86.Reg, bases []uint64, res *Result, newLabel func(string) asm.Sym) []serialize.Entry {
	lea := func(target asm.Sym) serialize.Entry {
		return serialize.Entry{
			Ins: asm.Ins{Inst: x86.Inst{Op: x86.LEA, W: 8, Dst: baseReg.Arg(),
				Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, Target: target},
			Synth: true,
		}
	}
	if len(bases) == 1 {
		return append(dst, lea(syms.Intern(TableLabel(bases[0]))))
	}

	scratch := x86.R11
	if baseReg == x86.R11 {
		scratch = x86.R10
	}
	done := newLabel("done")
	out := append(dst, serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.PUSH, Src: scratch.Arg()}}, Synth: true})
	for i, base := range bases {
		if i == len(bases)-1 {
			// Conservative analysis guarantees the true base is among the
			// candidates; the last one needs no comparison.
			out = append(out, lea(syms.Intern(TableLabel(base))))
			break
		}
		origLbl := repair.OrigLabel(base)
		if res.Sets == nil {
			res.Sets = make(map[string]uint64)
		}
		res.Sets[origLbl] = base
		next := newLabel("next")
		out = append(out,
			serialize.Entry{
				Ins: asm.Ins{Inst: x86.Inst{Op: x86.LEA, W: 8, Dst: scratch.Arg(),
					Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, Target: syms.Intern(origLbl)},
				Synth: true,
			},
			serialize.Entry{
				Ins:   asm.Ins{Inst: x86.Inst{Op: x86.CMP, W: 8, Dst: baseReg.Arg(), Src: scratch.Arg()}},
				Synth: true,
			},
			serialize.Entry{
				Ins:   asm.Ins{Inst: x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()}, Target: next},
				Synth: true,
			},
			lea(syms.Intern(TableLabel(base))),
			serialize.Entry{
				Ins:   asm.Ins{Inst: x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, Target: done},
				Synth: true,
			},
			serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.NOP}}, Label: next, Synth: true},
		)
	}
	out = append(out,
		serialize.Entry{Ins: asm.Ins{Inst: x86.Inst{Op: x86.POP, Dst: scratch.Arg()}}, Label: done, Synth: true},
	)
	return out
}
