package cfg

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/elfx"
	"repro/internal/harden"
	"repro/internal/x86"
)

// analyzeAllTables (re)runs the jump-table dataflow for every indirect
// jump in the graph (§3.2.2: whenever a new indirect edge appears). It
// reports whether anything changed.
func (b *builder) analyzeAllTables() (bool, error) {
	if err := harden.Inject(harden.FPCfgTables); err != nil {
		return false, fmt.Errorf("cfg: tables: %w", err)
	}
	changed := false
	var tables []*JumpTable
	for _, blk := range b.dispatchBlocks() {
		// Dirty-version skip: a table analyzed at the current graph
		// version cannot produce a different result (the analysis is a
		// pure function of graph state + known bases). On the converged
		// final round this makes the pass O(#tables).
		if v, ok := b.tableVer[blk.Addr]; ok && v == b.graphVersion {
			if blk.Table != nil {
				tables = append(tables, blk.Table)
			}
			continue
		}
		t, err := b.analyzeTable(blk)
		if err != nil {
			return false, err
		}
		b.tableVer[blk.Addr] = b.graphVersion
		if t == nil {
			blk.Table = nil
			continue
		}
		if !tablesEqual(blk.Table, t) {
			changed = true
		}
		blk.Table = t
		tables = append(tables, t)
		for _, targets := range t.Targets {
			for _, tgt := range targets {
				if b.at(tgt).blk == 0 {
					changed = true // neither a block nor an instruction yet
				}
				b.enqueue(tgt)
			}
		}
	}
	b.g.Tables = tables
	return changed, nil
}

// dispatchBlocks returns the blocks ending in an indirect jmp, in address
// order. Each decoded indirect jmp ends its block and a split keeps it
// last, so the block owning it now is the one to analyze.
func (b *builder) dispatchBlocks() []*Block {
	out := make([]*Block, len(b.jmps))
	for i, a := range b.jmps {
		out[i], _ = b.locate(a)
	}
	slices.SortFunc(out, func(x, y *Block) int { return cmp.Compare(x.Addr, y.Addr) })
	return out
}

func tablesEqual(a, b *JumpTable) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.JmpAddr != b.JmpAddr || len(a.Bases) != len(b.Bases) {
		return false
	}
	for i := range a.Bases {
		if a.Bases[i] != b.Bases[i] {
			return false
		}
		if len(a.Entries[a.Bases[i]]) != len(b.Entries[b.Bases[i]]) {
			return false
		}
	}
	return true
}

// analyzeTable performs backward slicing from an indirect jump to recover
// the symbolic form "base + sext(table[idx])" and then over-approximates
// the table entries (§3.2.2). Returns nil when the pattern does not match
// (e.g. in bogus blocks); such jumps are left untouched and, if the block
// is genuine, would only be reached through code SURI also preserves.
func (b *builder) analyzeTable(blk *Block) (*JumpTable, error) {
	last := blk.Insts[len(blk.Insts)-1]
	jmpReg, ok := last.Src.AsReg()
	if !ok {
		return nil, nil
	}
	jmpAddr := blk.End() - uint64(blk.Sizes[len(blk.Sizes)-1])

	// Step 1: backward over all superset paths, find "add T, B" then
	// "movsxd T, [B + idx*4]".
	type loadSite struct {
		base x86.Reg
		addr uint64 // address of the movsxd
	}
	var sites []loadSite
	seenSite := map[loadSite]bool{}

	b.walkBack(blk, len(blk.Insts)-2, 8, func(in x86.Inst, at uint64, path *walkState) bool {
		switch path.stage {
		case 0: // looking for add T, B
			if in.Op == x86.ADD && in.W == 8 {
				if d, ok := in.Dst.AsReg(); ok && d == jmpReg {
					if s, ok := in.Src.AsReg(); ok {
						path.baseReg = s
						path.stage = 1
						return true
					}
				}
			}
			if writesReg(in, jmpReg) {
				return false // T redefined by something else: dead path
			}
		case 1: // looking for movsxd T, [B + idx*4]
			if in.Op == x86.MOVSXD {
				if d, ok := in.Dst.AsReg(); ok && d == jmpReg {
					if m, ok := in.Src.AsMem(); ok && m.Base == path.baseReg && m.Scale == 4 && !m.Rip {
						site := loadSite{base: path.baseReg, addr: at}
						if !seenSite[site] {
							seenSite[site] = true
							sites = append(sites, site)
						}
						return false // this path is complete
					}
				}
			}
			if writesReg(in, jmpReg) {
				return false
			}
		}
		return true
	})

	if len(sites) == 0 {
		return nil, nil
	}

	// Step 2: for each site, collect every "lea B, [RIP+X]" definition
	// reaching the load over superset paths. Over-approximated (bogus)
	// edges can contribute extra bases; those are resolved dynamically by
	// the symbolizer (§3.5.2). The candidate is built in the builder's
	// scratch and cloned only if it differs from the block's table.
	t := &b.cand
	*t = JumpTable{
		JmpAddr:  jmpAddr,
		BlockAdr: blk.Addr,
		Bases:    t.Bases[:0],
		Entries:  t.Entries,
		Targets:  t.Targets,
	}
	clear(t.Entries)
	clear(t.Targets)
	b.entries, b.targets = b.entries[:0], b.targets[:0]
	baseSeen := map[uint64]bool{}
	for _, site := range sites {
		t.BaseReg = site.base
		t.LoadAddr = site.addr
		siteBlk, idx := b.locate(site.addr)
		if siteBlk == nil {
			continue
		}
		b.walkBack(siteBlk, idx-1, 32, func(in x86.Inst, at uint64, path *walkState) bool {
			if in.Op == x86.LEA {
				if d, ok := in.Dst.AsReg(); ok && d == site.base {
					if m, ok := in.Src.AsMem(); ok && m.Rip {
						base := at + uint64(pathSizeAt(b, at)) + uint64(int64(m.Disp))
						if b.dataSectionAt(base) != nil && !baseSeen[base] {
							baseSeen[base] = true
							t.Bases = append(t.Bases, base)
						}
						return false // definition found on this path
					}
					return false // defined by something else: dead path
				}
			}
			if writesReg(in, site.base) {
				return false
			}
			return true
		})
	}

	for _, base := range t.Bases {
		if !b.knownBases[base] {
			b.knownBases[base] = true
			// New bases act as scan barriers for other tables, so their
			// discovery must invalidate previously analyzed results.
			b.graphVersion++
		}
	}

	// Step 3: size each candidate table under the configured policy.
	var lo, hi uint64
	switch b.opts.Bounds {
	case BoundsText:
		lo, hi = b.g.TextStart, b.g.TextEnd
	case BoundsCmp:
		n, ok := b.cmpBound(blk)
		if ok {
			return b.keepOrClone(blk, b.fixedCountTable(t, n)), nil
		}
		if b.opts.StrictTables {
			return nil, fmt.Errorf("cfg: assertion: indirect jump at %#x has no bounds comparison", jmpAddr)
		}
		// No comparison (bounds-check-free dispatch): fall back to a
		// function-bounds scan that stops at other known table bases —
		// still unsound past the true table end (adjacent data).
		lo, hi = b.g.FuncBounds(jmpAddr)
		b.useBarriers = true
		defer func() { b.useBarriers = false }()
	default:
		lo, hi = b.g.FuncBounds(jmpAddr)
	}
	valid := t.Bases[:0]
	for _, base := range t.Bases {
		entries, targets := b.readTable(base, lo, hi)
		if len(entries) == 0 {
			continue
		}
		valid = append(valid, base)
		t.Entries[base] = entries
		t.Targets[base] = targets
	}
	t.Bases = valid
	return b.keepOrClone(blk, t), nil
}

// keepOrClone turns the scratch candidate t into the block's table: nil
// when no base survived, the block's current table when t matches it
// (same jmp, load and base register, bases and entry counts; the entries
// themselves are then the same bytes of the same sections), and a Graph
// copy of t otherwise.
func (b *builder) keepOrClone(blk *Block, t *JumpTable) *JumpTable {
	if len(t.Bases) == 0 {
		return nil
	}
	if old := blk.Table; tablesEqual(old, t) && old.BlockAdr == t.BlockAdr &&
		old.LoadAddr == t.LoadAddr && old.BaseReg == t.BaseReg {
		return old
	}
	c := *t
	c.Bases = slices.Clone(t.Bases)
	c.Entries = make(map[uint64][]int32, len(t.Bases))
	c.Targets = make(map[uint64][]uint64, len(t.Bases))
	for _, base := range t.Bases {
		c.Entries[base] = slices.Clone(t.Entries[base])
		c.Targets[base] = slices.Clone(t.Targets[base])
	}
	return &c
}

// cmpBound scans backward in the dispatch block for "cmp r, imm"
// guarding the index and returns imm+1.
func (b *builder) cmpBound(blk *Block) (int, bool) {
	for i := len(blk.Insts) - 1; i >= 0; i-- {
		in := blk.Insts[i]
		if in.Op == x86.CMP {
			if imm, ok := in.Src.AsImm(); ok && imm >= 0 && imm < 1<<20 {
				return int(imm) + 1, true
			}
		}
	}
	// The guard may sit in a predecessor block (cmp; ja default; ...).
	for _, p := range b.g.Preds(blk.Addr) {
		pb := b.g.Blocks[p]
		if pb == nil {
			continue
		}
		for i := len(pb.Insts) - 1; i >= 0; i-- {
			in := pb.Insts[i]
			if in.Op == x86.CMP {
				if imm, ok := in.Src.AsImm(); ok && imm >= 0 && imm < 1<<20 {
					return int(imm) + 1, true
				}
			}
		}
	}
	return 0, false
}

// fixedCountTable reads exactly n entries per candidate base without
// validity checks (the metadata-trusting policy), filling the scratch
// candidate t.
func (b *builder) fixedCountTable(t *JumpTable, n int) *JumpTable {
	valid := t.Bases[:0]
	for _, base := range t.Bases {
		sec := b.dataSectionAt(base)
		if sec == nil {
			continue
		}
		e0 := len(b.entries)
		off := base - sec.Addr
		for k := 0; k < n; k++ {
			o := off + uint64(4*k)
			if o+4 > uint64(len(sec.Data)) {
				break
			}
			e := int32(uint32(sec.Data[o]) | uint32(sec.Data[o+1])<<8 |
				uint32(sec.Data[o+2])<<16 | uint32(sec.Data[o+3])<<24)
			tgt := base + uint64(int64(e))
			if tgt < b.g.TextStart || tgt >= b.g.TextEnd {
				break
			}
			b.entries = append(b.entries, e)
			b.targets = append(b.targets, tgt)
		}
		if len(b.entries) == e0 {
			continue
		}
		valid = append(valid, base)
		t.Entries[base] = b.entries[e0:]
		t.Targets[base] = b.targets[e0:]
	}
	t.Bases = valid
	return t
}

// readTable reads 4-byte entries at base while each resolves to a code
// address inside the current function bounds — the over-approximation of
// §3.2.2 (the table may absorb adjacent data, as in Figure 3). The
// entries and targets it returns are windows of the builder's scratch.
func (b *builder) readTable(base, fstart, fend uint64) ([]int32, []uint64) {
	sec := b.dataSectionAt(base)
	if sec == nil {
		return nil, nil
	}
	e0 := len(b.entries)
	off := base - sec.Addr
	for k := 0; k < b.opts.MaxTableEntries; k++ {
		if b.useBarriers && k > 0 && b.knownBases[base+uint64(4*k)] {
			break // another table starts here
		}
		o := off + uint64(4*k)
		if o+4 > uint64(len(sec.Data)) {
			break
		}
		e := int32(uint32(sec.Data[o]) | uint32(sec.Data[o+1])<<8 |
			uint32(sec.Data[o+2])<<16 | uint32(sec.Data[o+3])<<24)
		tgt := base + uint64(int64(e))
		if tgt < fstart || tgt >= fend {
			break
		}
		if b.opts.Bounds == BoundsText {
			// The Ddisasm-style heuristic also validates that the target
			// is a known instruction boundary — which plausible-looking
			// adjacent data (Figure 3) can still satisfy.
			if blk, _ := b.locate(tgt); blk == nil {
				break
			}
		}
		b.entries = append(b.entries, e)
		b.targets = append(b.targets, tgt)
	}
	return b.entries[e0:], b.targets[e0:]
}

// dataSectionAt returns the non-executable alloc progbits section holding
// addr (jump tables live in read-only data).
func (b *builder) dataSectionAt(addr uint64) *elfx.Section {
	sec, _ := sectionAt(b.f, addr)
	if sec == nil || sec.Flags&elfx.SHFExecinstr != 0 || sec.Data == nil {
		return nil
	}
	return sec
}

// pathSizeAt returns the encoded size of the instruction at addr.
func pathSizeAt(b *builder, addr uint64) int {
	if blk, i := b.locate(addr); blk != nil {
		return int(blk.Sizes[i])
	}
	return 0
}

// walkState carries per-path pattern-matching state during backward walks.
type walkState struct {
	stage   int
	baseReg x86.Reg
}

// walkBack visits instructions backward from (blk, idx), following all
// predecessor edges in the superset CFG up to maxDepth blocks per path.
// The visitor returns false to stop the current path.
func (b *builder) walkBack(blk *Block, idx, maxDepth int, visit func(in x86.Inst, at uint64, st *walkState) bool) {
	type frame struct {
		blk   *Block
		idx   int
		depth int
		st    walkState
	}
	stack := []frame{{blk: blk, idx: idx}}
	// visited guards against path explosion: at most one visit per
	// (block, stage) pair.
	type visitKey struct {
		addr  uint64
		stage int
	}
	visited := map[visitKey]bool{}

	for len(stack) > 0 {
		// The visitor updates the top frame's state in place; the frame
		// is popped only after its walk, when its fields are copied out
		// before any push can overwrite the slot.
		fr := &stack[len(stack)-1]
		// at walks back from the end of instruction fr.idx.
		at := fr.blk.Addr
		for _, s := range fr.blk.Sizes[:fr.idx+1] {
			at += uint64(s)
		}
		alive := true
		for i := fr.idx; i >= 0; i-- {
			at -= uint64(fr.blk.Sizes[i])
			if !visit(fr.blk.Insts[i], at, &fr.st) {
				alive = false
				break
			}
		}
		blk, depth, st := fr.blk, fr.depth, fr.st
		stack = stack[:len(stack)-1]
		if !alive || depth >= maxDepth {
			continue
		}
		for _, p := range b.g.Preds(blk.Addr) {
			pb := b.g.Blocks[p]
			if pb == nil || len(pb.Insts) == 0 {
				continue
			}
			key := visitKey{addr: p, stage: st.stage}
			if visited[key] {
				continue
			}
			visited[key] = true
			start := len(pb.Insts) - 1
			// Skip the terminator itself when it is the branch leading
			// here; it does not write registers we track except via the
			// generic writesReg check, so including it is also fine.
			stack = append(stack, frame{blk: pb, idx: start, depth: depth + 1, st: st})
		}
	}
}

// writesReg conservatively reports whether the instruction writes reg.
func writesReg(in x86.Inst, reg x86.Reg) bool {
	switch in.Op {
	case x86.CMP, x86.TEST, x86.PUSH, x86.JMP, x86.JCC, x86.RET, x86.NOP, x86.ENDBR64:
		return false
	case x86.CALL, x86.SYSCALL:
		// Calls clobber caller-saved registers.
		switch reg {
		case x86.RBX, x86.RBP, x86.R12, x86.R13, x86.R14, x86.R15, x86.RSP:
			return false
		}
		return true
	case x86.CQO:
		return reg == x86.RDX || reg == x86.RAX
	case x86.IDIV:
		return reg == x86.RAX || reg == x86.RDX
	}
	if d, ok := in.Dst.AsReg(); ok && d == reg {
		return true
	}
	if in.Op == x86.POP {
		if d, ok := in.Dst.AsReg(); ok && d == reg {
			return true
		}
	}
	return false
}
