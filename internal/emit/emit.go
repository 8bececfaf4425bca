// Package emit implements SURI's Emitter (§3.6): it assembles S' into new
// code/data sections, appends them to the original binary while keeping
// every original section at its original virtual address (Figure 7),
// makes the original code section non-executable, retargets relocation
// entries whose addends are code pointers, and moves the ELF entry point
// into the copied code.
package emit

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/serialize"
)

// Input bundles everything the emitter needs.
type Input struct {
	Graph      *cfg.Graph
	Entries    []serialize.Entry // S' (repaired, symbolized, instrumented)
	TableItems []asm.Item        // isolated jump tables
	InstrItems []asm.Item        // instrumentation payload (.suri.instr)
	Sets       map[string]uint64 // pinned original-layout labels

	// TablePatches rewrite 4-byte jump-table entries in place inside the
	// preserved original data (solution-②-style tools without table
	// isolation): the word at Addr becomes symbol(Plus) - Base.
	TablePatches []TablePatch

	// Obs, if set, receives emission metrics (assembler relaxation
	// rounds, emitted bytes). Nil disables collection at zero cost.
	Obs *obs.Collector
}

// TablePatch is one in-place jump-table entry rewrite.
type TablePatch struct {
	Addr uint64
	Plus asm.Sym
	Base uint64
}

// Layout reports where the new sections landed.
type Layout struct {
	NewTextAddr   uint64
	NewTextSize   uint64
	NewRodataAddr uint64
	NewRodataSize uint64
	InstrAddr     uint64 // writable instrumentation payload (.suri.instr)
	InstrSize     uint64
	NewEntry      uint64
	AdjustedRelas int

	// RelaxRounds is how many layout passes branch relaxation took.
	RelaxRounds int
}

// RelaxRoundBounds are the histogram buckets for branch-relaxation
// convergence (asm.relax_rounds).
var RelaxRoundBounds = []int64{1, 2, 4, 8, 16, 32}

// Emit produces the rewritten binary.
func Emit(in Input) ([]byte, *Layout, error) {
	orig := in.Graph.File
	newBase := alignUp(orig.MaxVaddr(), 0x10000)

	// The program assembles against the stream's own symbol table.
	syms := in.Graph.Syms
	prog := &asm.Program{Syms: syms, Sets: make([]asm.Set, 0, len(in.Sets))}
	for name, addr := range in.Sets {
		prog.Sets = append(prog.Sets, asm.Set{Name: name, Addr: addr})
	}
	slices.SortFunc(prog.Sets, func(a, b asm.Set) int { return cmp.Compare(a.Name, b.Name) })

	text := prog.Section(".suri.text", asm.Alloc|asm.Exec)
	text.Align = elfx.PageSize
	text.Addr = newBase
	text.HasAddr = true
	items := itemsPool.Get().(*[]asm.Item)
	defer func() {
		// The list points into S': clear it, or the pool would keep
		// this rewrite's stream alive.
		clear(*items)
		*items = (*items)[:0]
		itemsPool.Put(items)
	}()
	*items = serialize.AppendItems((*items)[:0], in.Entries, syms)
	text.Items = *items

	ro := prog.Section(".suri.rodata", asm.Alloc)
	ro.Align = elfx.PageSize
	ro.Items = in.TableItems
	if len(ro.Items) == 0 {
		ro.D8(0) // keep the section non-empty for a stable layout
	}

	// Instrumentation payload: a writable zero-initialized region the
	// inserted code addresses RIP-relatively. Appended last so layouts
	// without instrumentation are byte-identical to before.
	if len(in.InstrItems) > 0 {
		id := prog.Section(".suri.instr", asm.Alloc|asm.Write)
		id.Align = elfx.PageSize
		id.Items = in.InstrItems
	}

	if err := harden.Inject(harden.FPEmitAssemble); err != nil {
		return nil, nil, fmt.Errorf("emit: %w", err)
	}
	res, err := asm.Assemble(prog, newBase)
	if err != nil {
		return nil, nil, fmt.Errorf("emit: assembling S': %w", err)
	}
	in.Obs.Metrics().Histogram("asm.relax_rounds", RelaxRoundBounds).Observe(int64(res.RelaxRounds))
	if len(res.Relocs) != 0 {
		return nil, nil, fmt.Errorf("emit: S' produced %d relocations; new code must be position-independent", len(res.Relocs))
	}

	// newAddrOf maps an original code address to its copied location.
	newAddrOf := func(old uint64) (uint64, bool) {
		s, ok := serialize.LookupLabel(syms, old)
		if !ok {
			return 0, false
		}
		return res.Addr(s)
	}

	out := &elfx.File{Type: orig.Type}

	// Original sections, layout-preserved. The original executable
	// section loses its exec flag (it remains mapped read-only so pinned
	// pointers still resolve).
	adjusted := 0
	for _, s := range orig.Sections {
		if s.Flags&elfx.SHFAlloc == 0 {
			continue // drop non-alloc debug baggage
		}
		ns := *s
		if ns.Flags&elfx.SHFExecinstr != 0 {
			ns.Flags &^= elfx.SHFExecinstr
		}
		// Sections alias the parsed input, which elfx.Write only reads.
		// own records that ns.Data is this call's buffer instead: a
		// section is copied before its first table patch, so the
		// caller's image is never written.
		own := false
		if ns.Name == ".rela.dyn" && ns.Data != nil {
			// Retarget relocated code pointers into the copied code
			// (only endbr64-targeting addends are code pointers, §3.4).
			relas := elfx.ParseRela(ns.Data)
			for i := range relas {
				if relas[i].Type != elfx.RX8664Relative {
					continue
				}
				t := uint64(relas[i].Addend)
				if cfg.IsEndbr(orig, t) {
					if na, ok := newAddrOf(t); ok {
						relas[i].Addend = int64(na)
						adjusted++
					}
				}
			}
			ns.Data = elfx.BuildRela(relas)
			own = true
		}
		for _, p := range in.TablePatches {
			if ns.Data == nil || p.Addr < ns.Addr || p.Addr+4 > ns.Addr+ns.Size {
				continue
			}
			if !own {
				ns.Data = append([]byte(nil), ns.Data...)
				own = true
			}
			v, ok := res.Addr(p.Plus)
			if !ok {
				return nil, nil, fmt.Errorf("emit: table patch target %q undefined", syms.Name(p.Plus))
			}
			diff := int64(v) - int64(p.Base)
			if diff < -1<<31 || diff > 1<<31-1 {
				return nil, nil, fmt.Errorf("emit: table patch at %#x out of range", p.Addr)
			}
			off := p.Addr - ns.Addr
			ns.Data[off] = byte(diff)
			ns.Data[off+1] = byte(diff >> 8)
			ns.Data[off+2] = byte(diff >> 16)
			ns.Data[off+3] = byte(diff >> 24)
		}
		out.Sections = append(out.Sections, &ns)
	}

	// New sections from the assembled S'.
	layout := &Layout{AdjustedRelas: adjusted, RelaxRounds: res.RelaxRounds}
	for _, s := range res.Sections {
		sec := &elfx.Section{
			Name:  s.Name,
			Type:  elfx.SHTProgbits,
			Flags: elfx.SHFAlloc,
			Addr:  s.Addr,
			Size:  s.Size,
			Align: s.Align,
			Data:  s.Data,
		}
		switch {
		case s.Flags&asm.Exec != 0:
			sec.Flags |= elfx.SHFExecinstr
			layout.NewTextAddr = s.Addr
			layout.NewTextSize = s.Size
		case s.Flags&asm.Write != 0:
			sec.Flags |= elfx.SHFWrite
			layout.InstrAddr = s.Addr
			layout.InstrSize = s.Size
		default:
			layout.NewRodataAddr = s.Addr
			layout.NewRodataSize = s.Size
		}
		out.Sections = append(out.Sections, sec)
	}

	// Entry point moves into the copied code.
	entry, ok := newAddrOf(orig.Entry)
	if !ok {
		return nil, nil, fmt.Errorf("emit: original entry %#x has no copied block", orig.Entry)
	}
	out.Entry = entry
	layout.NewEntry = entry

	// Segments: originals with exec rights dropped, plus the new ones.
	for _, seg := range orig.Segments {
		ns := *seg
		if ns.Type == elfx.PTLoad && ns.Flags&elfx.PFX != 0 {
			ns.Flags &^= elfx.PFX
		}
		out.Segments = append(out.Segments, &ns)
	}
	for _, s := range res.Sections {
		flags := uint32(elfx.PFR)
		if s.Flags&asm.Exec != 0 {
			flags |= elfx.PFX
		}
		if s.Flags&asm.Write != 0 {
			flags |= elfx.PFW
		}
		out.Segments = append(out.Segments, &elfx.Segment{
			Type: elfx.PTLoad, Flags: flags,
			Off: s.Addr, Vaddr: s.Addr,
			Filesz: s.Size, Memsz: s.Size, Align: elfx.PageSize,
		})
	}

	if err := harden.Inject(harden.FPEmitWrite); err != nil {
		return nil, nil, fmt.Errorf("emit: %w", err)
	}
	bin, err := elfx.Write(out)
	if err != nil {
		return nil, nil, fmt.Errorf("emit: %w", err)
	}
	return bin, layout, nil
}

// itemsPool recycles the .suri.text item list across Emit calls. It
// holds pointers into the S' being assembled, so Emit clears it before
// putting it back.
var itemsPool = sync.Pool{New: func() any { return new([]asm.Item) }}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
