// Package egalito is the Egalito-like comparison reassembler (§4.1.3): a
// metadata-driven, layout-agnostic rewriter. It fixes the original data
// layout (solution ② of Table 1) and relies on call-frame information for
// function boundaries. Its policies reproduce the published failure modes
// of the real tool organically:
//
//   - binaries without .eh_frame (or outside its model: C++ exception
//     tables, overlapping code interpretations, ambiguous dispatch
//     bases) are rejected with assertion failures (the ~5% completion
//     gap of §4.2.2);
//   - every RIP reference into the text section is symbolized as a code
//     label, so the temporary pointers of composite expressions that
//     target mid-function code (Figure 2 / S7) silently break once code
//     moves;
//   - jump tables are resized by the preceding bounds comparison when one
//     exists, and otherwise over-read — and the entries are rewritten IN
//     PLACE in the preserved read-only data (no isolation, §3.5.1), so
//     over-read entries corrupt adjacent constants.
package egalito

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/emit"
	"repro/internal/repair"
	"repro/internal/serialize"
)

// Tool is the Egalito-like rewriter.
type Tool struct{}

// New returns the tool.
func New() *Tool { return &Tool{} }

// Name implements baseline.Rewriter.
func (t *Tool) Name() string { return "egalito" }

// Rewrite implements baseline.Rewriter.
func (t *Tool) Rewrite(bin []byte) (*baseline.Result, error) {
	f, err := elfx.Read(bin)
	if err != nil {
		return nil, err
	}
	if f.Section(".eh_frame") == nil {
		return nil, fmt.Errorf("egalito: assertion failed: no unwind information")
	}
	// C++ exception tables are outside the model: the LSDA landing-pad
	// encoding is not parsed, so moving code would silently strand the
	// pads. The real tool aborts on such inputs (§4.2.2); so do we.
	if f.Section(".gcc_except_table") != nil {
		return nil, fmt.Errorf("egalito: assertion failed: C++ exception tables unsupported")
	}
	g, err := cfg.Build(f, cfg.Options{
		UseEhFrame: true,
		Bounds:     cfg.BoundsCmp,
	})
	if err != nil {
		return nil, fmt.Errorf("egalito: %w", err)
	}
	if err := baseline.OverlapError(g); err != nil {
		return nil, fmt.Errorf("egalito: assertion failed: %w", err)
	}
	for _, tbl := range g.Tables {
		if tbl.MultiBase() {
			return nil, fmt.Errorf("egalito: assertion failed: ambiguous jump table base at %#x", tbl.JmpAddr)
		}
	}

	entries, err := serialize.Serialize(g)
	if err != nil {
		return nil, fmt.Errorf("egalito: %w", err)
	}
	index := baseline.IndexByAddr(entries)

	// Pointer policy: data layout is fixed, so data references are
	// pinned; but ANY reference into the text section is assumed to be a
	// code pointer and symbolized — including Figure 2's temporary
	// pointers, which is exactly the S7 unsoundness of Table 1.
	sets := make(map[string]uint64)
	for i := range entries {
		e := &entries[i]
		if e.Synth || e.Target != 0 {
			continue
		}
		m, ok := e.Inst.MemArg()
		if !ok || !m.Rip {
			continue
		}
		tgt, ok := e.Inst.RipTarget(e.Addr, int(e.Size))
		if !ok {
			continue
		}
		if tgt >= g.TextStart && tgt < g.TextEnd {
			if _, isBlock := g.Blocks[tgt]; isBlock {
				e.Target = serialize.Label(g.Syms, tgt)
				continue
			}
			lbl, ok := baseline.AttachLabelAt(entries, g.Syms, index, tgt)
			if !ok {
				return nil, fmt.Errorf("egalito: assertion failed: code reference to non-boundary %#x", tgt)
			}
			e.Target = lbl
			continue
		}
		lbl := repair.OrigLabel(tgt)
		sets[lbl] = tgt
		e.Target = g.Syms.Intern(lbl)
	}

	// Jump tables: rewrite entries in place within the preserved data.
	var patches []emit.TablePatch
	patched := map[uint64]bool{}
	for _, tbl := range g.Tables {
		base := tbl.Bases[0]
		if patched[base] {
			continue
		}
		patched[base] = true
		for k, tgt := range tbl.Targets[base] {
			plus := g.Syms.Intern(serialize.TrapLabel)
			if _, ok := g.Blocks[tgt]; ok {
				plus = serialize.Label(g.Syms, tgt)
			}
			patches = append(patches, emit.TablePatch{
				Addr: base + uint64(4*k),
				Plus: plus,
				Base: base,
			})
		}
	}

	out, _, err := emit.Emit(emit.Input{
		Graph:        g,
		Entries:      entries,
		Sets:         sets,
		TablePatches: patches,
	})
	if err != nil {
		return nil, fmt.Errorf("egalito: %w", err)
	}
	return &baseline.Result{Binary: out}, nil
}

var _ baseline.Rewriter = (*Tool)(nil)
