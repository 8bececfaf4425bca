package asm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/x86"
)

// Reloc is a rebase relocation with R_X86_64_RELATIVE semantics: the
// 8-byte word at link-time address Offset holds Addend, and a loader that
// maps the image at base B must store B+Addend there.
type Reloc struct {
	Offset uint64
	Addend uint64
}

// OutSection is one placed section of an assembled program.
type OutSection struct {
	Name  string
	Flags SectionFlags
	Addr  uint64
	Size  uint64
	Align uint64
	Data  []byte // nil for Nobits sections
}

// Result is the output of Assemble.
type Result struct {
	Sections []OutSection
	Relocs   []Reloc

	// RelaxRounds is how many layout passes branch relaxation took to
	// converge (1 means no rel8 branch ever grew).
	RelaxRounds int

	syms    *Symtab
	addrs   []uint64 // per Sym
	defined []bool   // per Sym
}

// Symbol looks up a defined symbol by name.
func (r *Result) Symbol(name string) (uint64, bool) {
	s, ok := r.syms.Lookup(name)
	if !ok {
		return 0, false
	}
	return r.Addr(s)
}

// Addr returns a defined symbol's address.
func (r *Result) Addr(s Sym) (uint64, bool) {
	if s == 0 || int(s) >= len(r.defined) || !r.defined[s] {
		return 0, false
	}
	return r.addrs[s], true
}

// SectionData returns the named output section, or nil.
func (r *Result) SectionData(name string) *OutSection {
	for i := range r.Sections {
		if r.Sections[i].Name == name {
			return &r.Sections[i]
		}
	}
	return nil
}

// Assemble lays out the program starting at base, resolves all symbolic
// operands, and returns the placed sections, the symbol table, and the
// rebase relocations for Quad items.
//
// Branch relaxation is grow-only: every JMP/JCC with a symbolic target
// starts in its rel8 form and is promoted to rel32 when the displacement
// does not fit; promotion is never undone, so layout converges even in the
// presence of alignment padding.
//
// Relaxation is incremental: encoded lengths are computed once per item
// (symbolic branches once per form), so each layout round is pure address
// arithmetic and each grow pass re-examines only branches still short.
// Emission appends into one buffer per section.
func Assemble(p *Program, base uint64) (*Result, error) {
	if p.Syms == nil {
		p.Syms = NewSymtab(len(p.Sets))
	}
	a := assembler{prog: p, syms: p.Syms, base: base}
	t := tablesPool.Get().(*tables)
	defer tablesPool.Put(t)
	a.cut(t)
	return a.run()
}

// tables is the per-item storage of one Assemble call, flat over all
// sections: it dies with the call (the Result keeps only the per-Sym
// addresses), so tablesPool hands it to the next call instead of the
// collector. Neither slab holds pointers.
type tables struct {
	info  []itemInfo
	addrs []uint64
}

var tablesPool = sync.Pool{New: func() any { return new(tables) }}

type assembler struct {
	prog *Program
	syms *Symtab
	base uint64

	symAddr []uint64   // per Sym, under the current layout
	defined []bool     // per Sym
	addrs   [][]uint64 // per section, per item
	starts  []uint64   // per section start address
	ends    []uint64   // per section end address

	// info caches per-item layout facts: the fixed encoded size of
	// non-branch items and both form lengths of symbolic branches,
	// computed once before the first round.
	info [][]itemInfo
}

// cut sizes t for the program's items and cuts it into per-section
// windows of a.info and a.addrs. buildInfo writes every info entry and
// layout every address before either is read, so the reused slabs need
// no clearing.
func (a *assembler) cut(t *tables) {
	n := 0
	for _, s := range a.prog.Sections {
		n += len(s.Items)
	}
	if cap(t.info) < n {
		t.info = make([]itemInfo, n)
		t.addrs = make([]uint64, n)
	}
	a.info = make([][]itemInfo, len(a.prog.Sections))
	a.addrs = make([][]uint64, len(a.prog.Sections))
	n = 0
	for si, s := range a.prog.Sections {
		m := n + len(s.Items)
		a.info[si] = t.info[n:m:m]
		a.addrs[si] = t.addrs[n:m:m]
		n = m
	}
}

// itemInfo kinds.
const (
	kOther  uint8 = iota // fixed-size item (instruction or data)
	kLabel               // defines a symbol, zero size
	kBranch              // symbolic rel8/rel32 branch, two possible sizes
	kAlign               // size depends on the current address
)

// itemInfo is 16 bytes with no pointers, so the cache costs the garbage
// collector nothing to scan; a label's name is read from its Label item.
type itemInfo struct {
	kind     uint8
	long     bool   // branch promoted to rel32
	shortLen uint8  // kBranch: rel8 form length
	longLen  uint8  // kBranch: rel32 form length
	size     uint64 // kOther: encoded size; kAlign: alignment
}

const maxRelaxRounds = 64

func (a *assembler) run() (*Result, error) {
	if err := a.buildInfo(); err != nil {
		return nil, err
	}
	rounds := 0
	for round := 0; ; round++ {
		if round > maxRelaxRounds {
			return nil, fmt.Errorf("asm: branch relaxation did not converge after %d rounds", maxRelaxRounds)
		}
		if err := a.layout(); err != nil {
			return nil, err
		}
		grown, err := a.growBranches()
		if err != nil {
			return nil, err
		}
		rounds = round + 1
		if !grown {
			break
		}
	}
	res, err := a.emit()
	if res != nil {
		res.RelaxRounds = rounds
	}
	return res, err
}

// buildInfo computes every item's encoded length once. Symbolic branches
// get both form lengths so later rounds never re-enter the encoder.
func (a *assembler) buildInfo() error {
	for si, s := range a.prog.Sections {
		infos := a.info[si]
		for ii, it := range s.Items {
			switch v := it.(type) {
			case Label:
				infos[ii] = itemInfo{kind: kLabel}
			case AlignTo:
				infos[ii] = itemInfo{kind: kAlign, size: v.N}
			case *Ins:
				if v.Target != 0 {
					if v.Inst.Src.Kind == x86.ArgRel && (v.Inst.Op == x86.JMP || v.Inst.Op == x86.JCC) {
						in := v.Inst
						in.Src = x86.Rel(0).Arg()
						in.LongBranch = false
						sn, err := x86.EncodedLen(in)
						if err != nil {
							return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
						}
						in.LongBranch = true
						ln, err := x86.EncodedLen(in)
						if err != nil {
							return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
						}
						infos[ii] = itemInfo{kind: kBranch, shortLen: uint8(sn), longLen: uint8(ln)}
						continue
					}
				}
				n, err := x86.EncodedLen(v.Inst)
				if err != nil {
					return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
				}
				infos[ii] = itemInfo{kind: kOther, size: uint64(n)}
			default:
				// Bytes/Quad/QuadLit/LongLit/LongDiff/Space: constant size.
				n, err := dataSize(it)
				if err != nil {
					return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
				}
				infos[ii] = itemInfo{kind: kOther, size: n}
			}
		}
	}
	return nil
}

// layout assigns addresses to every item and defines all symbols under the
// current relaxation state. This is pure arithmetic over the item-info
// cache (labels read their names from the items); symbol/address storage
// is allocated on the first round and reused afterwards.
func (a *assembler) layout() error {
	first := a.defined == nil
	if first {
		sets := make([]Sym, len(a.prog.Sets))
		for i, set := range a.prog.Sets {
			sets[i] = a.syms.Intern(set.Name)
		}
		n := a.syms.Len() + 1
		a.symAddr = make([]uint64, n)
		a.defined = make([]bool, n)
		for i, set := range a.prog.Sets {
			if a.defined[sets[i]] {
				return fmt.Errorf("asm: duplicate symbol %q", set.Name)
			}
			a.defined[sets[i]] = true
			a.symAddr[sets[i]] = set.Addr
		}
		a.starts = make([]uint64, len(a.prog.Sections))
		a.ends = make([]uint64, len(a.prog.Sections))
	}

	cursor := a.base
	for si := range a.prog.Sections {
		s := a.prog.Sections[si]
		align := s.Align
		if align == 0 {
			align = 1
		}
		cursor = alignUp(cursor, align)
		if s.HasAddr {
			if s.Addr < cursor {
				return fmt.Errorf("asm: section %s fixed at %#x overlaps previous section ending at %#x",
					s.Name, s.Addr, cursor)
			}
			cursor = s.Addr
		}
		a.starts[si] = cursor
		addrs := a.addrs[si]
		infos := a.info[si]
		for ii := range infos {
			addrs[ii] = cursor
			inf := &infos[ii]
			switch inf.kind {
			case kLabel:
				sym := s.Items[ii].(Label).Sym
				if first {
					if sym == 0 || int(sym) >= len(a.defined) {
						return fmt.Errorf("asm: label with symbol %d outside the table in section %s", sym, s.Name)
					}
					if a.defined[sym] {
						return fmt.Errorf("asm: duplicate symbol %q in section %s", a.syms.Name(sym), s.Name)
					}
					a.defined[sym] = true
				}
				a.symAddr[sym] = cursor
			case kBranch:
				if inf.long {
					cursor += uint64(inf.longLen)
				} else {
					cursor += uint64(inf.shortLen)
				}
			case kAlign:
				if inf.size != 0 {
					cursor = alignUp(cursor, inf.size)
				}
			default:
				cursor += inf.size
			}
		}
		a.ends[si] = cursor
	}
	return nil
}

// dataSize is the encoded size of a data item.
func dataSize(it Item) (uint64, error) {
	switch v := it.(type) {
	case Bytes:
		return uint64(len(v.Data)), nil
	case Quad, QuadLit:
		return 8, nil
	case LongLit, LongDiff:
		return 4, nil
	case Space:
		return v.N, nil
	}
	return 0, fmt.Errorf("unknown item type %T", it)
}

// growBranches promotes any symbolic rel8 branch whose displacement no
// longer fits. It reports whether anything changed. Only still-short
// branches are examined, with cached form lengths.
func (a *assembler) growBranches() (bool, error) {
	grown := false
	for si := range a.prog.Sections {
		s := a.prog.Sections[si]
		infos := a.info[si]
		for ii := range infos {
			inf := &infos[ii]
			if inf.kind != kBranch || inf.long {
				continue
			}
			v := s.Items[ii].(*Ins)
			target, ok := a.lookup(v.Target)
			if !ok {
				return false, fmt.Errorf("asm: undefined symbol %s in section %s", a.symName(v.Target), s.Name)
			}
			rel := int64(target) + int64(v.Addend) - int64(a.addrs[si][ii]+uint64(inf.shortLen))
			if rel < -128 || rel > 127 {
				inf.long = true
				grown = true
			}
		}
	}
	return grown, nil
}

// sizeOf returns the laid-out size of item ii of section si at addr.
func (a *assembler) sizeOf(si, ii int, addr uint64) uint64 {
	inf := &a.info[si][ii]
	switch inf.kind {
	case kLabel:
		return 0
	case kBranch:
		if inf.long {
			return uint64(inf.longLen)
		}
		return uint64(inf.shortLen)
	case kAlign:
		if inf.size == 0 {
			return 0
		}
		return alignUp(addr, inf.size) - addr
	default:
		return inf.size
	}
}

// lookup returns a symbol's address under the current layout.
func (a *assembler) lookup(s Sym) (uint64, bool) {
	if int(s) >= len(a.defined) || !a.defined[s] {
		return 0, false
	}
	return a.symAddr[s], true
}

// symName quotes a symbol's name for an error message.
func (a *assembler) symName(s Sym) string {
	if int(s) > a.syms.Len() {
		return fmt.Sprintf("#%d (not in the symbol table)", s)
	}
	return fmt.Sprintf("%q", a.syms.Name(s))
}

func (a *assembler) emit() (*Result, error) {
	res := &Result{syms: a.syms, addrs: a.symAddr, defined: a.defined}
	for si, s := range a.prog.Sections {
		start := a.starts[si]
		out := OutSection{
			Name:  s.Name,
			Flags: s.Flags,
			Addr:  start,
			Size:  a.ends[si] - start,
			Align: max(s.Align, 1),
		}
		if s.Flags&Nobits != 0 {
			for ii, it := range s.Items {
				switch it.(type) {
				case Label, Space, AlignTo:
				default:
					return nil, fmt.Errorf("asm: section %s item %d: data item in nobits section", s.Name, ii)
				}
			}
			res.Sections = append(res.Sections, out)
			continue
		}
		data := make([]byte, 0, out.Size)
		for ii, it := range s.Items {
			var err error
			data, err = a.emitItemTo(res, data, si, ii, it, a.addrs[si][ii])
			if err != nil {
				return nil, fmt.Errorf("asm: section %s item %d (%s): %w", s.Name, ii, a.syms.ItemString(it), err)
			}
		}
		if uint64(len(data)) != out.Size {
			return nil, fmt.Errorf("asm: section %s: emitted %d bytes, layout said %d", s.Name, len(data), out.Size)
		}
		out.Data = data
		res.Sections = append(res.Sections, out)
	}
	sort.Slice(res.Relocs, func(i, j int) bool { return res.Relocs[i].Offset < res.Relocs[j].Offset })
	return res, nil
}

// emitItemTo appends the item's bytes to data (relocations go straight
// into res).
func (a *assembler) emitItemTo(res *Result, data []byte, si, ii int, it Item, addr uint64) ([]byte, error) {
	switch v := it.(type) {
	case Label:
		return data, nil
	case *Ins:
		return a.emitInsTo(data, si, ii, v, addr)
	case Bytes:
		return append(data, v.Data...), nil
	case Quad:
		target, ok := a.lookup(v.Sym)
		if !ok {
			return data, fmt.Errorf("undefined symbol %s", a.symName(v.Sym))
		}
		val := uint64(int64(target) + v.Add)
		res.Relocs = append(res.Relocs, Reloc{Offset: addr, Addend: val})
		return binary.LittleEndian.AppendUint64(data, val), nil
	case QuadLit:
		return binary.LittleEndian.AppendUint64(data, uint64(v)), nil
	case LongLit:
		return binary.LittleEndian.AppendUint32(data, uint32(v)), nil
	case LongDiff:
		plus, ok := a.lookup(v.Plus)
		if !ok {
			return data, fmt.Errorf("undefined symbol %s", a.symName(v.Plus))
		}
		minus, ok := a.lookup(v.Minus)
		if !ok {
			return data, fmt.Errorf("undefined symbol %s", a.symName(v.Minus))
		}
		diff := int64(plus) - int64(minus) + v.Add
		if diff < -1<<31 || diff > 1<<31-1 {
			return data, fmt.Errorf("difference %s-%s = %#x exceeds 32 bits", a.symName(v.Plus), a.symName(v.Minus), diff)
		}
		return binary.LittleEndian.AppendUint32(data, uint32(int32(diff))), nil
	case AlignTo:
		size := a.sizeOf(si, ii, addr)
		if a.prog.Sections[si].Flags&Exec != 0 {
			return x86.AppendNopBytes(data, int(size)), nil
		}
		return appendZeros(data, int(size)), nil
	case Space:
		return appendZeros(data, int(v.N)), nil
	}
	return data, fmt.Errorf("unknown item type %T", it)
}

func appendZeros(data []byte, n int) []byte {
	for i := 0; i < n; i++ {
		data = append(data, 0)
	}
	return data
}

// emitInsTo appends the encoding of instruction item ii of section si,
// resolving its symbolic operand against the cached item sizes.
func (a *assembler) emitInsTo(data []byte, si, ii int, v *Ins, addr uint64) ([]byte, error) {
	in := v.Inst
	if v.Diff.Set() {
		return a.emitInsDiffTo(data, in, v.Diff)
	}
	if v.Target == 0 {
		return x86.EncodeAppend(data, in)
	}
	target, ok := a.lookup(v.Target)
	if !ok {
		return data, fmt.Errorf("undefined symbol %s", a.symName(v.Target))
	}
	size := a.sizeOf(si, ii, addr)
	dest := int64(target) + int64(v.Addend)
	rel := dest - int64(addr+size)
	mark := len(data)
	var err error

	if in.Src.Kind == x86.ArgRel {
		if rel < -1<<31 || rel > 1<<31-1 {
			return data, fmt.Errorf("branch to %s out of rel32 range (%#x)", a.symName(v.Target), rel)
		}
		in.Src = x86.Rel(int32(rel)).Arg()
		in.LongBranch = a.info[si][ii].long
		data, err = x86.EncodeAppend(data, in)
		if err != nil {
			return data, err
		}
		if uint64(len(data)-mark) != size {
			return data, fmt.Errorf("branch size drifted: assumed %d, got %d", size, len(data)-mark)
		}
		return data, nil
	}

	m, ok := in.MemArg()
	if !ok || !m.Rip {
		return data, fmt.Errorf("symbolic operand %s on instruction without relative operand: %s", a.symName(v.Target), in)
	}
	if rel < -1<<31 || rel > 1<<31-1 {
		return data, fmt.Errorf("RIP reference to %s out of disp32 range (%#x)", a.symName(v.Target), rel)
	}
	m.Disp = int32(rel)
	if in.Dst.Kind == x86.ArgMem {
		in.Dst = m.Arg()
	} else {
		in.Src = m.Arg()
	}
	data, err = x86.EncodeAppend(data, in)
	if err != nil {
		return data, err
	}
	if uint64(len(data)-mark) != size {
		return data, fmt.Errorf("RIP operand size drifted: assumed %d, got %d", size, len(data)-mark)
	}
	return data, nil
}

// emitInsDiffTo appends the encoding of an instruction whose memory
// displacement carries a symbol difference.
func (a *assembler) emitInsDiffTo(data []byte, in x86.Inst, d DispDiff) ([]byte, error) {
	plus, ok := a.lookup(d.Plus)
	if !ok {
		return data, fmt.Errorf("undefined symbol %s", a.symName(d.Plus))
	}
	minus, ok := a.lookup(d.Minus)
	if !ok {
		return data, fmt.Errorf("undefined symbol %s", a.symName(d.Minus))
	}
	m, ok := in.MemArg()
	if !ok || m.Rip {
		return data, fmt.Errorf("displacement difference requires a non-RIP memory operand: %s", in)
	}
	if !m.Wide {
		return data, fmt.Errorf("displacement difference requires a Wide memory operand: %s", in)
	}
	diff := int64(m.Disp) + int64(plus) - int64(minus)
	if diff < -1<<31 || diff > 1<<31-1 {
		return data, fmt.Errorf("displacement %s-%s = %#x exceeds 32 bits", a.symName(d.Plus), a.symName(d.Minus), diff)
	}
	m.Disp = int32(diff)
	if in.Dst.Kind == x86.ArgMem {
		in.Dst = m.Arg()
	} else {
		in.Src = m.Arg()
	}
	return x86.EncodeAppend(data, in)
}

func alignUp(v, align uint64) uint64 {
	if align <= 1 {
		return v
	}
	return (v + align - 1) &^ (align - 1)
}
