// Package ddisasm is the Ddisasm-like comparison reassembler (§4.1.3):
// a heuristic symbolization-based rewriter that rebuilds the entire
// binary — code and data move to fresh addresses. Its policies reproduce
// the published failure modes of the real tool organically:
//
//   - jump-table bounds inferred by the "target stays in .text" heuristic
//     over-read past real tables into adjacent plausible data (Figure 3),
//     corrupting it in the rewritten image;
//   - composite (symbol+constant) expressions are symbolized to whatever
//     section the temporary pointer lands in; because sections move by
//     different deltas, cross-section temporaries (Figures 1-2) break;
//   - binaries with conflicting overlapping code interpretations cannot
//     be expressed in its single-interpretation assembly and fail to
//     rewrite (the "invalid label"/completion failures of §4.2.1).
package ddisasm

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/serialize"
)

// Tool is the Ddisasm-like rewriter.
type Tool struct{}

// tablePatch is a heuristically-bounded jump table to rewrite in place.
type tablePatch struct {
	base    uint64
	targets []uint64
}

// New returns the tool.
func New() *Tool { return &Tool{} }

// Name implements baseline.Rewriter.
func (t *Tool) Name() string { return "ddisasm" }

// secLabel names the relocated copy of an original data section.
func secLabel(name string) string { return "sec$" + name }

// Rewrite implements baseline.Rewriter.
func (t *Tool) Rewrite(bin []byte) (*baseline.Result, error) {
	f, err := elfx.Read(bin)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(f, cfg.Options{
		UseEhFrame: true,
		Bounds:     cfg.BoundsText, // the over-reading heuristic
	})
	if err != nil {
		return nil, fmt.Errorf("ddisasm: %w", err)
	}
	// A single-interpretation reassembler cannot emit overlapping code.
	if err := baseline.OverlapError(g); err != nil {
		return nil, fmt.Errorf("ddisasm: %w", err)
	}

	entries, err := serialize.Serialize(g)
	if err != nil {
		return nil, fmt.Errorf("ddisasm: %w", err)
	}
	index := baseline.IndexByAddr(entries)

	// Symbolization policy: every RIP reference becomes label+offset in
	// whatever section the target lands in. No original layout survives.
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
				return nil, fmt.Errorf("ddisasm: invalid label: %#x is not an instruction boundary", tgt)
			}
			e.Target = lbl
			continue
		}
		sec, off := dataSectionAt(f, tgt)
		if sec == nil {
			return nil, fmt.Errorf("ddisasm: invalid label: reference to unmapped %#x", tgt)
		}
		e.Target = g.Syms.Intern(secLabel(sec.Name))
		e.Addend = int32(off)
	}

	prog, err := t.buildProgram(f, g, entries)
	if err != nil {
		return nil, err
	}
	out, err := t.emit(f, prog)
	if err != nil {
		return nil, err
	}
	return &baseline.Result{Binary: out}, nil
}

func dataSectionAt(f *elfx.File, addr uint64) (*elfx.Section, uint64) {
	usable := func(s *elfx.Section) bool {
		if s.Flags&elfx.SHFAlloc == 0 || s.Flags&elfx.SHFExecinstr != 0 {
			return false
		}
		switch s.Name {
		case ".eh_frame", ".rela.dyn", ".dynamic", ".note.gnu.property":
			return false // metadata is regenerated, not relocated
		}
		return true
	}
	for _, s := range f.Sections {
		if usable(s) && addr >= s.Addr && addr < s.Addr+s.Size {
			return s, addr - s.Addr
		}
	}
	// Past-the-end pointers (legal C, the S2 trap): a heuristic tool
	// attaches the address to whichever object starts there — the next
	// section if one begins exactly at addr (the wrong owner once
	// sections move independently), else the section ending at addr.
	for _, s := range f.Sections {
		if usable(s) && s.Addr == addr {
			return s, 0
		}
	}
	for _, s := range f.Sections {
		if usable(s) && s.Addr+s.Size == addr {
			return s, s.Size
		}
	}
	return nil, 0
}

// buildProgram lays out the new image: rebuilt code plus relocated copies
// of every data section, with per-section padding that changes the
// inter-section distances (the realistic consequence of rewriting).
func (t *Tool) buildProgram(f *elfx.File, g *cfg.Graph, entries []serialize.Entry) (*asm.Program, error) {
	prog := &asm.Program{Syms: g.Syms}
	text := prog.Section(".text", asm.Alloc|asm.Exec)
	text.Align = elfx.PageSize
	text.Items = serialize.Items(entries, g.Syms)

	// Relocation targets (for rebuilding .quad entries symbolically).
	relocOffsets := make(map[uint64]uint64) // vaddr of quad -> addend
	if sec := f.Section(".rela.dyn"); sec != nil {
		for _, r := range elfx.ParseRela(sec.Data) {
			if r.Type == elfx.RX8664Relative {
				relocOffsets[r.Off] = uint64(r.Addend)
			}
		}
	}
	// Jump tables discovered by the (over-reading) heuristic.
	tables := make(map[uint64]tablePatch)
	for _, tbl := range g.Tables {
		for _, base := range tbl.Bases {
			if old, ok := tables[base]; !ok || len(tbl.Targets[base]) > len(old.targets) {
				tables[base] = tablePatch{base: base, targets: tbl.Targets[base]}
			}
		}
	}

	idx := 0
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFAlloc == 0 || s.Flags&elfx.SHFExecinstr != 0 {
			continue
		}
		switch s.Name {
		case ".eh_frame", ".rela.dyn", ".dynamic", ".note.gnu.property":
			continue
		}
		idx++
		flags := asm.Alloc
		if s.Flags&elfx.SHFWrite != 0 {
			flags |= asm.Write
		}
		if s.Type == elfx.SHTNobits {
			flags |= asm.Nobits
		}
		out := prog.Section(s.Name, flags)
		out.Align = elfx.PageSize
		// The rewriting-induced drift: each section shifts by a
		// different amount.
		out.Skip(uint64(0x40 * idx))
		out.L(secLabel(s.Name))
		if s.Type == elfx.SHTNobits {
			out.Skip(s.Size)
			continue
		}
		if err := t.emitDataSection(out, f, g, s, relocOffsets, tables); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// emitDataSection copies a data section, re-symbolizing relocated quads
// and rewriting every region it believes is a jump table.
func (t *Tool) emitDataSection(out *asm.Section, f *elfx.File, g *cfg.Graph,
	s *elfx.Section, relocs map[uint64]uint64, tables map[uint64]tablePatch) error {
	pos := uint64(0)
	for pos < s.Size {
		addr := s.Addr + pos
		if tbl, ok := tables[addr]; ok {
			jt := fmt.Sprintf("jt$%x", addr)
			out.L(jt)
			for _, tgt := range tbl.targets {
				ref := serialize.TrapLabel
				if _, okb := g.Blocks[tgt]; okb {
					ref = serialize.LabelFor(tgt)
				}
				out.Diff(ref, jt, 0)
			}
			pos += uint64(4 * len(tbl.targets))
			continue
		}
		if target, ok := relocs[addr]; ok && pos+8 <= s.Size {
			if err := t.emitQuad(out, f, g, target); err != nil {
				return err
			}
			pos += 8
			continue
		}
		// Raw run until the next special offset.
		end := pos + 1
		for end < s.Size {
			a := s.Addr + end
			if _, ok := tables[a]; ok {
				break
			}
			if _, ok := relocs[a]; ok {
				break
			}
			end++
		}
		out.Raw(append([]byte(nil), s.Data[pos:end]...))
		pos = end
	}
	return nil
}

// emitQuad re-symbolizes one relocated pointer.
func (t *Tool) emitQuad(out *asm.Section, f *elfx.File, g *cfg.Graph, target uint64) error {
	if target >= g.TextStart && target < g.TextEnd {
		if _, ok := g.Blocks[target]; ok {
			out.Q(serialize.LabelFor(target), 0)
			return nil
		}
		return fmt.Errorf("ddisasm: invalid label: relocated pointer to non-boundary %#x", target)
	}
	sec, off := dataSectionAt(f, target)
	if sec == nil {
		return fmt.Errorf("ddisasm: invalid label: relocated pointer to unmapped %#x", target)
	}
	out.Q(secLabel(sec.Name), int64(off))
	return nil
}

// emit assembles the program and wraps it in an ELF image with fresh
// metadata (relocations, dynamic section, and the original CET note).
func (t *Tool) emit(orig *elfx.File, prog *asm.Program) ([]byte, error) {
	res, err := asm.Assemble(prog, elfx.PageSize)
	if err != nil {
		return nil, fmt.Errorf("ddisasm: assembling: %w", err)
	}
	entry, ok := res.Symbol(serialize.LabelFor(orig.Entry))
	if !ok {
		return nil, fmt.Errorf("ddisasm: entry point lost")
	}

	var imageEnd uint64
	for _, s := range res.Sections {
		if end := s.Addr + s.Size; end > imageEnd {
			imageEnd = end
		}
	}
	metaBase := (imageEnd + elfx.PageSize - 1) &^ (elfx.PageSize - 1)

	relas := make([]elfx.Rela, len(res.Relocs))
	for i, r := range res.Relocs {
		relas[i] = elfx.Rela{Off: r.Offset, Type: elfx.RX8664Relative, Addend: int64(r.Addend)}
	}
	relaData := elfx.BuildRela(relas)
	relaAddr := metaBase
	dynAddr := relaAddr + uint64(len(relaData))
	dynAddr = (dynAddr + 7) &^ 7
	dynData := elfx.BuildDynamic([][2]uint64{
		{uint64(elfx.DTRela), relaAddr},
		{uint64(elfx.DTRelasz), uint64(len(relaData))},
		{uint64(elfx.DTRelaent), elfx.RelaSize},
	})
	noteAddr := (dynAddr + uint64(len(dynData)) + 7) &^ 7
	var noteData []byte
	if n := orig.Section(".note.gnu.property"); n != nil {
		noteData = append([]byte(nil), n.Data...)
	}

	out := &elfx.File{Type: elfx.ETDyn, Entry: entry}
	for _, s := range res.Sections {
		sec := &elfx.Section{
			Name: s.Name, Type: elfx.SHTProgbits, Flags: elfx.SHFAlloc,
			Addr: s.Addr, Size: s.Size, Align: s.Align, Data: s.Data,
		}
		if s.Flags&asm.Write != 0 {
			sec.Flags |= elfx.SHFWrite
		}
		if s.Flags&asm.Exec != 0 {
			sec.Flags |= elfx.SHFExecinstr
		}
		if s.Flags&asm.Nobits != 0 {
			sec.Type = elfx.SHTNobits
			sec.Data = nil
		}
		out.Sections = append(out.Sections, sec)
	}
	out.Sections = append(out.Sections,
		&elfx.Section{Name: ".rela.dyn", Type: elfx.SHTRela, Flags: elfx.SHFAlloc,
			Addr: relaAddr, Size: uint64(len(relaData)), Align: 8, Entsize: elfx.RelaSize, Data: relaData},
		&elfx.Section{Name: ".dynamic", Type: elfx.SHTDynamic, Flags: elfx.SHFAlloc,
			Addr: dynAddr, Size: uint64(len(dynData)), Align: 8, Entsize: 16, Data: dynData},
	)
	if noteData != nil {
		out.Sections = append(out.Sections, &elfx.Section{
			Name: ".note.gnu.property", Type: elfx.SHTNote, Flags: elfx.SHFAlloc,
			Addr: noteAddr, Size: uint64(len(noteData)), Align: 8, Data: noteData,
		})
	}
	out.Segments = elfx.BuildLoadSegments(out.Sections)
	out.Segments = append(out.Segments, &elfx.Segment{
		Type: elfx.PTDynamic, Flags: elfx.PFR,
		Off: dynAddr, Vaddr: dynAddr,
		Filesz: uint64(len(dynData)), Memsz: uint64(len(dynData)), Align: 8,
	})
	return elfx.Write(out)
}

var _ baseline.Rewriter = (*Tool)(nil)
