package asm

import (
	"encoding/binary"
	"fmt"
	"sort"

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
	Symbols  map[string]uint64
	Relocs   []Reloc

	// RelaxRounds is how many layout passes branch relaxation took to
	// converge (1 means no rel8 branch ever grew).
	RelaxRounds int
}

// Symbol looks up a defined symbol.
func (r *Result) Symbol(name string) (uint64, bool) {
	v, ok := r.Symbols[name]
	return v, ok
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
// Emission appends into one reused buffer per section. AssembleLegacy
// runs the pre-optimization algorithm; both produce identical bytes.
func Assemble(p *Program, base uint64) (*Result, error) {
	a := assembler{prog: p, base: base, long: make(map[[2]int]bool)}
	return a.run()
}

// AssembleLegacy is the pre-optimization assembler: every relaxation
// round recomputes every item's encoded length from scratch and emission
// encodes into fresh per-item buffers. It is retained as the paired
// benchmark baseline and as the oracle for determinism tests — its
// output is byte-identical to Assemble's.
func AssembleLegacy(p *Program, base uint64) (*Result, error) {
	a := assembler{prog: p, base: base, long: make(map[[2]int]bool), legacy: true}
	return a.run()
}

type assembler struct {
	prog   *Program
	base   uint64
	long   map[[2]int]bool // (section, item) -> branch forced to rel32
	legacy bool

	syms   map[string]uint64
	addrs  [][]uint64 // per section, per item
	starts []uint64   // per section start address
	ends   []uint64   // per section end address

	// info caches per-item layout facts (nil in legacy mode): the fixed
	// encoded size of non-branch items and both form lengths of symbolic
	// branches, computed once before the first round.
	info [][]itemInfo
}

// itemInfo kinds.
const (
	kOther  uint8 = iota // fixed-size item (instruction or data)
	kLabel               // defines a symbol, zero size
	kBranch              // symbolic rel8/rel32 branch, two possible sizes
	kAlign               // size depends on the current address
)

type itemInfo struct {
	kind     uint8
	long     bool   // branch promoted to rel32
	size     uint64 // kOther: encoded size; kAlign: alignment
	shortLen uint64 // kBranch: rel8 form length
	longLen  uint64 // kBranch: rel32 form length
	name     string // kLabel: symbol name
}

const maxRelaxRounds = 64

func (a *assembler) run() (*Result, error) {
	if !a.legacy {
		if err := a.buildInfo(); err != nil {
			return nil, err
		}
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
	a.info = make([][]itemInfo, len(a.prog.Sections))
	for si, s := range a.prog.Sections {
		infos := make([]itemInfo, len(s.Items))
		for ii, it := range s.Items {
			switch v := it.(type) {
			case Label:
				infos[ii] = itemInfo{kind: kLabel, name: v.Name}
			case AlignTo:
				infos[ii] = itemInfo{kind: kAlign, size: v.N}
			case *Ins:
				if v.Sym != "" {
					if _, isRel := v.X.Src.(x86.Rel); isRel && (v.X.Op == x86.JMP || v.X.Op == x86.JCC) {
						in := v.X
						in.Src = x86.Rel(0)
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
						infos[ii] = itemInfo{kind: kBranch, shortLen: uint64(sn), longLen: uint64(ln)}
						continue
					}
				}
				n, err := a.itemSize(si, ii, it, 0)
				if err != nil {
					return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
				}
				infos[ii] = itemInfo{kind: kOther, size: n}
			default:
				// Bytes/Quad/QuadLit/LongLit/LongDiff/Space: constant size.
				n, err := a.itemSize(si, ii, it, 0)
				if err != nil {
					return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
				}
				infos[ii] = itemInfo{kind: kOther, size: n}
			}
		}
		a.info[si] = infos
	}
	return nil
}

// layout assigns addresses to every item and defines all symbols under the
// current relaxation state. In incremental mode this is pure arithmetic
// over the item-info cache; symbol/address storage is allocated on the
// first round and reused afterwards.
func (a *assembler) layout() error {
	if a.legacy {
		return a.layoutLegacy()
	}
	first := a.syms == nil
	if first {
		a.syms = make(map[string]uint64)
		for _, set := range a.prog.Sets {
			if _, dup := a.syms[set.Name]; dup {
				return fmt.Errorf("asm: duplicate symbol %q", set.Name)
			}
			a.syms[set.Name] = set.Addr
		}
		a.addrs = make([][]uint64, len(a.prog.Sections))
		a.starts = make([]uint64, len(a.prog.Sections))
		a.ends = make([]uint64, len(a.prog.Sections))
		for si := range a.prog.Sections {
			a.addrs[si] = make([]uint64, len(a.prog.Sections[si].Items))
		}
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
				if first {
					if _, dup := a.syms[inf.name]; dup {
						return fmt.Errorf("asm: duplicate symbol %q in section %s", inf.name, s.Name)
					}
				}
				a.syms[inf.name] = cursor
			case kBranch:
				if inf.long {
					cursor += inf.longLen
				} else {
					cursor += inf.shortLen
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

// layoutLegacy is the pre-optimization layout pass: fresh maps/slices and
// a full itemSize recomputation every round.
func (a *assembler) layoutLegacy() error {
	a.syms = make(map[string]uint64)
	for _, set := range a.prog.Sets {
		if _, dup := a.syms[set.Name]; dup {
			return fmt.Errorf("asm: duplicate symbol %q", set.Name)
		}
		a.syms[set.Name] = set.Addr
	}
	a.addrs = make([][]uint64, len(a.prog.Sections))
	a.starts = make([]uint64, len(a.prog.Sections))
	a.ends = make([]uint64, len(a.prog.Sections))

	cursor := a.base
	for si, s := range a.prog.Sections {
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
		a.addrs[si] = make([]uint64, len(s.Items))
		for ii, it := range s.Items {
			a.addrs[si][ii] = cursor
			if lbl, ok := it.(Label); ok {
				if _, dup := a.syms[lbl.Name]; dup {
					return fmt.Errorf("asm: duplicate symbol %q in section %s", lbl.Name, s.Name)
				}
				a.syms[lbl.Name] = cursor
				continue
			}
			n, err := a.itemSize(si, ii, it, cursor)
			if err != nil {
				return fmt.Errorf("asm: section %s item %d: %w", s.Name, ii, err)
			}
			cursor += n
		}
		a.ends[si] = cursor
	}
	return nil
}

func (a *assembler) itemSize(si, ii int, it Item, addr uint64) (uint64, error) {
	switch v := it.(type) {
	case *Ins:
		in := v.X
		if v.Sym != "" {
			if _, isRel := in.Src.(x86.Rel); isRel && (in.Op == x86.JMP || in.Op == x86.JCC) {
				in.Src = x86.Rel(0)
				in.LongBranch = a.long[[2]int{si, ii}]
			}
		}
		n, err := x86.EncodedLen(in)
		return uint64(n), err
	case Bytes:
		return uint64(len(v.Data)), nil
	case Quad, QuadLit:
		return 8, nil
	case LongLit, LongDiff:
		return 4, nil
	case AlignTo:
		if v.N == 0 {
			return 0, nil
		}
		return alignUp(addr, v.N) - addr, nil
	case Space:
		return v.N, nil
	}
	return 0, fmt.Errorf("unknown item type %T", it)
}

// growBranches promotes any symbolic rel8 branch whose displacement no
// longer fits. It reports whether anything changed. In incremental mode
// only still-short branches are examined, with cached form lengths.
func (a *assembler) growBranches() (bool, error) {
	if a.legacy {
		return a.growBranchesLegacy()
	}
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
			target, ok := a.syms[v.Sym]
			if !ok {
				return false, fmt.Errorf("asm: undefined symbol %q in section %s", v.Sym, s.Name)
			}
			rel := int64(target) + v.Add - int64(a.addrs[si][ii]+inf.shortLen)
			if rel < -128 || rel > 127 {
				inf.long = true
				a.long[[2]int{si, ii}] = true
				grown = true
			}
		}
	}
	return grown, nil
}

func (a *assembler) growBranchesLegacy() (bool, error) {
	grown := false
	for si, s := range a.prog.Sections {
		for ii, it := range s.Items {
			v, ok := it.(*Ins)
			if !ok || v.Sym == "" {
				continue
			}
			if _, isRel := v.X.Src.(x86.Rel); !isRel || (v.X.Op != x86.JMP && v.X.Op != x86.JCC) {
				continue
			}
			key := [2]int{si, ii}
			if a.long[key] {
				continue
			}
			target, ok := a.syms[v.Sym]
			if !ok {
				return false, fmt.Errorf("asm: undefined symbol %q in section %s", v.Sym, s.Name)
			}
			size, err := a.itemSize(si, ii, it, a.addrs[si][ii])
			if err != nil {
				return false, err
			}
			rel := int64(target) + v.Add - int64(a.addrs[si][ii]+size)
			if rel < -128 || rel > 127 {
				a.long[key] = true
				grown = true
			}
		}
	}
	return grown, nil
}

// sizeOf returns the item's laid-out size, from the cache when present.
func (a *assembler) sizeOf(si, ii int, it Item, addr uint64) (uint64, error) {
	if a.info != nil {
		inf := &a.info[si][ii]
		switch inf.kind {
		case kLabel:
			return 0, nil
		case kBranch:
			if inf.long {
				return inf.longLen, nil
			}
			return inf.shortLen, nil
		case kAlign:
			if inf.size == 0 {
				return 0, nil
			}
			return alignUp(addr, inf.size) - addr, nil
		default:
			return inf.size, nil
		}
	}
	return a.itemSize(si, ii, it, addr)
}

func (a *assembler) emit() (*Result, error) {
	res := &Result{Symbols: a.syms}
	for si, s := range a.prog.Sections {
		start := a.starts[si]
		out := OutSection{
			Name:  s.Name,
			Flags: s.Flags,
			Addr:  start,
			Size:  a.ends[si] - start,
			Align: maxU64(s.Align, 1),
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
			addr := a.addrs[si][ii]
			if a.legacy {
				b, relocs, err := a.emitItem(si, ii, it, addr)
				if err != nil {
					return nil, fmt.Errorf("asm: section %s item %d (%s): %w", s.Name, ii, ItemString(it), err)
				}
				data = append(data, b...)
				res.Relocs = append(res.Relocs, relocs...)
				continue
			}
			var err error
			data, err = a.emitItemTo(res, data, si, ii, it, addr)
			if err != nil {
				return nil, fmt.Errorf("asm: section %s item %d (%s): %w", s.Name, ii, ItemString(it), err)
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

func (a *assembler) emitItem(si, ii int, it Item, addr uint64) ([]byte, []Reloc, error) {
	switch v := it.(type) {
	case Label:
		return nil, nil, nil
	case *Ins:
		return a.emitIns(si, ii, v, addr)
	case Bytes:
		return v.Data, nil, nil
	case Quad:
		target, ok := a.resolve(v.Sym)
		if !ok {
			return nil, nil, fmt.Errorf("undefined symbol %q", v.Sym)
		}
		val := uint64(int64(target) + v.Add)
		return binary.LittleEndian.AppendUint64(nil, val), []Reloc{{Offset: addr, Addend: val}}, nil
	case QuadLit:
		return binary.LittleEndian.AppendUint64(nil, uint64(v)), nil, nil
	case LongLit:
		return binary.LittleEndian.AppendUint32(nil, uint32(v)), nil, nil
	case LongDiff:
		plus, ok := a.resolve(v.Plus)
		if !ok {
			return nil, nil, fmt.Errorf("undefined symbol %q", v.Plus)
		}
		minus, ok := a.resolve(v.Minus)
		if !ok {
			return nil, nil, fmt.Errorf("undefined symbol %q", v.Minus)
		}
		diff := int64(plus) - int64(minus) + v.Add
		if diff < -1<<31 || diff > 1<<31-1 {
			return nil, nil, fmt.Errorf("difference %s-%s = %#x exceeds 32 bits", v.Plus, v.Minus, diff)
		}
		return binary.LittleEndian.AppendUint32(nil, uint32(int32(diff))), nil, nil
	case AlignTo:
		size, _ := a.itemSize(si, ii, it, addr)
		sec := a.prog.Sections[si]
		if sec.Flags&Exec != 0 {
			return x86.NopBytes(int(size)), nil, nil
		}
		return make([]byte, size), nil, nil
	case Space:
		return make([]byte, v.N), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown item type %T", it)
}

// emitItemTo appends the item's bytes to data (relocations go straight
// into res), avoiding the per-item allocations of the legacy path.
func (a *assembler) emitItemTo(res *Result, data []byte, si, ii int, it Item, addr uint64) ([]byte, error) {
	switch v := it.(type) {
	case Label:
		return data, nil
	case *Ins:
		return a.emitInsTo(data, si, ii, v, addr)
	case Bytes:
		return append(data, v.Data...), nil
	case Quad:
		target, ok := a.resolve(v.Sym)
		if !ok {
			return data, fmt.Errorf("undefined symbol %q", v.Sym)
		}
		val := uint64(int64(target) + v.Add)
		res.Relocs = append(res.Relocs, Reloc{Offset: addr, Addend: val})
		return binary.LittleEndian.AppendUint64(data, val), nil
	case QuadLit:
		return binary.LittleEndian.AppendUint64(data, uint64(v)), nil
	case LongLit:
		return binary.LittleEndian.AppendUint32(data, uint32(v)), nil
	case LongDiff:
		plus, ok := a.resolve(v.Plus)
		if !ok {
			return data, fmt.Errorf("undefined symbol %q", v.Plus)
		}
		minus, ok := a.resolve(v.Minus)
		if !ok {
			return data, fmt.Errorf("undefined symbol %q", v.Minus)
		}
		diff := int64(plus) - int64(minus) + v.Add
		if diff < -1<<31 || diff > 1<<31-1 {
			return data, fmt.Errorf("difference %s-%s = %#x exceeds 32 bits", v.Plus, v.Minus, diff)
		}
		return binary.LittleEndian.AppendUint32(data, uint32(int32(diff))), nil
	case AlignTo:
		size, _ := a.sizeOf(si, ii, it, addr)
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

// emitInsTo is emitIns in appending form, using the cached item sizes
// and the allocation-free EncodeAppend.
func (a *assembler) emitInsTo(data []byte, si, ii int, v *Ins, addr uint64) ([]byte, error) {
	in := v.X
	if v.DispPlus != "" || v.DispMinus != "" {
		b, _, err := a.emitInsDiff(v)
		return append(data, b...), err
	}
	if v.Sym == "" {
		return x86.EncodeAppend(data, in)
	}
	target, ok := a.resolve(v.Sym)
	if !ok {
		return data, fmt.Errorf("undefined symbol %q", v.Sym)
	}
	size, err := a.sizeOf(si, ii, v, addr)
	if err != nil {
		return data, err
	}
	dest := int64(target) + v.Add
	rel := dest - int64(addr+size)
	mark := len(data)

	if _, isRel := in.Src.(x86.Rel); isRel {
		if rel < -1<<31 || rel > 1<<31-1 {
			return data, fmt.Errorf("branch to %q out of rel32 range (%#x)", v.Sym, rel)
		}
		in.Src = x86.Rel(int32(rel))
		in.LongBranch = a.long[[2]int{si, ii}]
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
		return data, fmt.Errorf("symbolic operand %q on instruction without relative operand: %s", v.Sym, in)
	}
	if rel < -1<<31 || rel > 1<<31-1 {
		return data, fmt.Errorf("RIP reference to %q out of disp32 range (%#x)", v.Sym, rel)
	}
	m.Disp = int32(rel)
	if _, isMem := in.Dst.(x86.Mem); isMem {
		in.Dst = m
	} else {
		in.Src = m
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

func (a *assembler) emitIns(si, ii int, v *Ins, addr uint64) ([]byte, []Reloc, error) {
	in := v.X
	if v.DispPlus != "" || v.DispMinus != "" {
		return a.emitInsDiff(v)
	}
	if v.Sym == "" {
		b, err := x86.Encode(in)
		return b, nil, err
	}
	target, ok := a.resolve(v.Sym)
	if !ok {
		return nil, nil, fmt.Errorf("undefined symbol %q", v.Sym)
	}
	size, err := a.itemSize(si, ii, v, addr)
	if err != nil {
		return nil, nil, err
	}
	dest := int64(target) + v.Add
	rel := dest - int64(addr+size)

	if _, isRel := in.Src.(x86.Rel); isRel {
		if rel < -1<<31 || rel > 1<<31-1 {
			return nil, nil, fmt.Errorf("branch to %q out of rel32 range (%#x)", v.Sym, rel)
		}
		in.Src = x86.Rel(int32(rel))
		in.LongBranch = a.long[[2]int{si, ii}]
		b, err := x86.Encode(in)
		if err != nil {
			return nil, nil, err
		}
		if uint64(len(b)) != size {
			return nil, nil, fmt.Errorf("branch size drifted: assumed %d, got %d", size, len(b))
		}
		return b, nil, nil
	}

	m, ok := in.MemArg()
	if !ok || !m.Rip {
		return nil, nil, fmt.Errorf("symbolic operand %q on instruction without relative operand: %s", v.Sym, in)
	}
	if rel < -1<<31 || rel > 1<<31-1 {
		return nil, nil, fmt.Errorf("RIP reference to %q out of disp32 range (%#x)", v.Sym, rel)
	}
	m.Disp = int32(rel)
	if _, isMem := in.Dst.(x86.Mem); isMem {
		in.Dst = m
	} else {
		in.Src = m
	}
	b, err := x86.Encode(in)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) != size {
		return nil, nil, fmt.Errorf("RIP operand size drifted: assumed %d, got %d", size, len(b))
	}
	return b, nil, nil
}

// emitInsDiff encodes an instruction whose memory displacement carries a
// symbol difference.
func (a *assembler) emitInsDiff(v *Ins) ([]byte, []Reloc, error) {
	plus, ok := a.resolve(v.DispPlus)
	if !ok {
		return nil, nil, fmt.Errorf("undefined symbol %q", v.DispPlus)
	}
	minus, ok := a.resolve(v.DispMinus)
	if !ok {
		return nil, nil, fmt.Errorf("undefined symbol %q", v.DispMinus)
	}
	in := v.X
	m, ok := in.MemArg()
	if !ok || m.Rip {
		return nil, nil, fmt.Errorf("displacement difference requires a non-RIP memory operand: %s", in)
	}
	if !m.Wide {
		return nil, nil, fmt.Errorf("displacement difference requires a Wide memory operand: %s", in)
	}
	diff := int64(m.Disp) + int64(plus) - int64(minus)
	if diff < -1<<31 || diff > 1<<31-1 {
		return nil, nil, fmt.Errorf("displacement %s-%s = %#x exceeds 32 bits", v.DispPlus, v.DispMinus, diff)
	}
	m.Disp = int32(diff)
	if _, isMem := in.Dst.(x86.Mem); isMem {
		in.Dst = m
	} else {
		in.Src = m
	}
	b, err := x86.Encode(in)
	return b, nil, err
}

func (a *assembler) resolve(name string) (uint64, bool) {
	v, ok := a.syms[name]
	return v, ok
}

func alignUp(v, align uint64) uint64 {
	if align <= 1 {
		return v
	}
	return (v + align - 1) &^ (align - 1)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
