package cfg

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ehframe"
	"repro/internal/elfx"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/x86"
)

// TableBounds selects how jump-table extents are determined.
type TableBounds int

// Table bounding policies.
const (
	// BoundsFunction is SURI's over-approximation (§3.2.2): accept
	// entries while they resolve inside the current function boundary.
	BoundsFunction TableBounds = iota

	// BoundsText is the classic heuristic (Ddisasm-style): accept
	// entries while they resolve anywhere in the text section. It
	// over-reads past real tables into adjacent plausible data (Fig. 3).
	BoundsText

	// BoundsCmp trusts the bounds-check comparison preceding the
	// dispatch (Egalito-style): the table has cmp-immediate+1 entries.
	// Dispatches without a comparison (bounds-check-free complete
	// switches) cannot be sized and, under StrictTables, abort the
	// build — the baseline's assertion failure.
	BoundsCmp
)

// Options configure superset CFG construction.
type Options struct {
	// UseEhFrame harvests function entries from call frame information
	// when present (§3.2.1). Disabling it models the §4.3.3 experiment.
	UseEhFrame bool

	// MaxBlockInsts bounds a single block's decode (bogus-path guard).
	MaxBlockInsts int

	// MaxTableEntries bounds the over-approximation of one jump table.
	MaxTableEntries int

	// Bounds selects the jump-table extent policy (baselines override).
	Bounds TableBounds

	// StrictTables aborts the build when a table cannot be sized under
	// the selected policy (models baseline assertion failures).
	StrictTables bool

	// MaxRounds bounds the outer harvest/disassemble/table fixpoint.
	// Zero means harden.DefaultCFGRounds. Exhaustion returns a
	// harden.BudgetExceeded (resource "cfg.rounds").
	MaxRounds int

	// MaxTotalInsts bounds instructions decoded across the whole build
	// (resource "cfg.insts"). Zero means harden.DefaultTotalInsts.
	MaxTotalInsts int64

	// MaxBlocks bounds the number of superset blocks (resource
	// "cfg.blocks"). Zero means harden.DefaultBlocks.
	MaxBlocks int

	// Cancel, when non-nil and closed, aborts the build with
	// harden.ErrCanceled. Callers wire a context's Done channel here.
	Cancel <-chan struct{}

	// Trace, if set, records sub-spans of the build (entry harvesting,
	// recursive disassembly, jump-table slicing). Nil disables tracing
	// at zero cost.
	Trace *obs.Trace
}

// DefaultOptions is the standard SURI configuration.
func DefaultOptions() Options {
	return Options{UseEhFrame: true, MaxBlockInsts: 20000, MaxTableEntries: 1024}
}

// endbrBytes is the byte pattern of endbr64; pointer classification is a
// pure byte-pattern check, as §5.1 discusses.
var endbrBytes = []byte{0xF3, 0x0F, 0x1E, 0xFA}

// IsEndbr reports whether the bytes at addr in the file form endbr64.
func IsEndbr(f *elfx.File, addr uint64) bool {
	sec, off := sectionAt(f, addr)
	if sec == nil || sec.Data == nil || off+4 > uint64(len(sec.Data)) {
		return false
	}
	return bytes.Equal(sec.Data[off:off+4], endbrBytes)
}

// sectionAt finds the alloc section containing addr.
func sectionAt(f *elfx.File, addr uint64) (*elfx.Section, uint64) {
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFAlloc == 0 {
			continue
		}
		if addr >= s.Addr && addr < s.Addr+s.Size {
			return s, addr - s.Addr
		}
	}
	return nil, 0
}

// slot is one text byte's entry in the builder's owner index. blk is one
// plus the builder id of the block owning the instruction that starts at
// this byte (zero: none), and idx is the instruction's index in that
// block. A block starts here exactly when blk is set and idx is 0, or -1
// for a block that decoded no instruction: it owns no instruction, yet
// merges and splits must still stop at it.
type slot struct {
	blk int32
	idx int32
}

// scratch is the builder state that dies with Build: nothing in the
// Graph points into it. Build takes one from scratchPool, resets it on
// take and returns it when it is done, so consecutive builds reuse its
// storage instead of allocating and zeroing it afresh. Only blocks holds
// pointers into a Graph, and they are cleared on return, so an idle
// scratch pins no Graph.
type scratch struct {
	// owner is the dense index of the text, one slot per byte, and
	// blocks maps builder ids to blocks. The index is pointer-free, so
	// per-instruction bookkeeping costs no map probe and no GC scan.
	owner    []slot
	blocks   []*Block
	entrySet map[uint64]bool
	work     []uint64

	// jmps lists the addresses of the decoded indirect jmps: the only
	// instructions jump-table analysis starts from.
	jmps []uint64

	// knownBases records every candidate table base seen so far; the
	// BoundsCmp fallback uses them as scan barriers.
	knownBases map[uint64]bool

	// tableVer records the graph version each dispatch block's table
	// was last analyzed at (see builder.graphVersion).
	tableVer map[uint64]uint64

	// cand is the jump-table candidate that analyzeTable rebuilds in
	// place on every analysis; its per-base entry and target slices are
	// windows of entries and targets. Only a candidate that differs
	// from the block's table is cloned into the Graph.
	cand    JumpTable
	entries []int32
	targets []uint64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		entrySet:   make(map[uint64]bool),
		knownBases: make(map[uint64]bool),
		tableVer:   make(map[uint64]uint64),
		cand: JumpTable{
			Entries: make(map[uint64][]int32),
			Targets: make(map[uint64][]uint64),
		},
	}
}}

// takeScratch returns a reset scratch whose owner index covers n text
// bytes.
func takeScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.owner) < n {
		s.owner = make([]slot, n)
	} else {
		s.owner = s.owner[:n]
		clear(s.owner)
	}
	s.blocks = s.blocks[:0]
	s.work = s.work[:0]
	s.jmps = s.jmps[:0]
	clear(s.entrySet)
	clear(s.knownBases)
	clear(s.tableVer)
	return s
}

// putScratch returns s to the pool. Only blocks[:len] can hold block
// pointers (every earlier return cleared the rest of its array), so
// clearing that prefix leaves the pool pointing at no Graph.
func putScratch(s *scratch) {
	clear(s.blocks)
	scratchPool.Put(s)
}

type builder struct {
	f    *elfx.File
	text *elfx.Section
	opts Options
	g    *Graph

	*scratch
	useBarriers bool

	// arenaInsts/arenaSizes are the current chunk of the build-wide
	// instruction arena: decode appends a block's instructions at its
	// end, from index open on, and the block keeps that window.
	// placedInsts/placedBytes count the instructions placed in any chunk
	// and the text bytes they cover.
	arenaInsts  []x86.Inst
	arenaSizes  []uint8
	open        int
	placedInsts int
	placedBytes int

	// graphVersion counts graph mutations (new block, split, new entry,
	// new table base). A dispatch whose table was analyzed at the current
	// version cannot produce a different result, so analyzeAllTables
	// skips it — the converged final round touches no table at all.
	graphVersion uint64

	// harvestGrew records whether decode-time harvesting added an entry
	// since the last round boundary.
	harvestGrew bool

	// totalInsts counts instructions decoded across the whole build
	// (checked against opts.MaxTotalInsts).
	totalInsts int64

	// err latches the first budget/cancel/injected failure. The decode
	// helpers cannot return errors through every path, so they record
	// here and run() surfaces it after each drain.
	err error
}

// fail latches the first fatal builder error.
func (b *builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// canceled reports (and latches) whether the Cancel channel has fired.
func (b *builder) canceled() bool {
	if b.opts.Cancel == nil {
		return false
	}
	select {
	case <-b.opts.Cancel:
		b.fail(fmt.Errorf("cfg: %w", harden.ErrCanceled))
		return true
	default:
		return false
	}
}

// Build constructs the superset CFG of a CET-enabled PIE binary.
func Build(f *elfx.File, opts Options) (*Graph, error) {
	if opts.MaxBlockInsts == 0 {
		opts.MaxBlockInsts = harden.DefaultBlockInsts
	}
	if opts.MaxTableEntries == 0 {
		opts.MaxTableEntries = harden.DefaultTableEntries
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = harden.DefaultCFGRounds
	}
	if opts.MaxTotalInsts == 0 {
		opts.MaxTotalInsts = harden.DefaultTotalInsts
	}
	if opts.MaxBlocks == 0 {
		opts.MaxBlocks = harden.DefaultBlocks
	}
	text, err := textSection(f)
	if err != nil {
		return nil, err
	}
	b := &builder{
		f: f, text: text, opts: opts,
		g: &Graph{
			Blocks:    make(map[uint64]*Block),
			TextStart: text.Addr,
			TextEnd:   text.Addr + text.Size,
			File:      f,
		},
		scratch: takeScratch(len(text.Data)),
	}
	defer putScratch(b.scratch)
	if err := b.run(); err != nil {
		return nil, err
	}
	// Every counted instruction was decoded: the only count that skips
	// its decode trips the budget and fails the build.
	b.g.decodes = uint64(b.totalInsts)
	return b.g, nil
}

func (b *builder) run() error {
	tr := b.opts.Trace
	span := tr.Start("harvest")
	err := b.harvestInitialEntries()
	span.SetInt("entries", int64(len(b.g.Entries)))
	span.End()
	if err != nil {
		return err
	}

	// Outer fixpoint (§3.2.2): decoding can harvest new entries (which
	// tighten or widen function bounds) and discover new indirect edges,
	// which requires re-running the jump-table dataflow.
	for round := 0; ; round++ {
		if round >= b.opts.MaxRounds {
			return fmt.Errorf("cfg: construction did not converge: %w",
				&harden.BudgetExceeded{Resource: "cfg.rounds", Limit: int64(b.opts.MaxRounds)})
		}
		span = tr.Start("disasm")
		span.SetInt("round", int64(round))
		b.drain()
		// Harvesting happened inline at decode time: each instruction is
		// scanned exactly once, when first decoded.
		grew := b.harvestGrew
		b.harvestGrew = false
		span.SetInt("blocks", int64(len(b.g.Blocks)))
		span.End()
		if b.err != nil {
			return b.err
		}

		span = tr.Start("tables")
		span.SetInt("round", int64(round))
		changed, err := b.analyzeAllTables()
		if err != nil {
			span.End()
			return err
		}
		b.drain()
		span.SetInt("tables", int64(len(b.g.Tables)))
		span.End()
		if b.err != nil {
			return b.err
		}
		if !grew && !changed && len(b.work) == 0 {
			break
		}
	}
	slices.SortFunc(b.g.Tables, func(x, y *JumpTable) int { return cmp.Compare(x.JmpAddr, y.JmpAddr) })
	b.g.invalidatePreds()
	return nil
}

// harvestInitialEntries collects the determinate entry points (§3.2.1):
// the ELF entry, relocated code pointers, and .eh_frame ranges.
func (b *builder) harvestInitialEntries() error {
	if err := harden.Inject(harden.FPCfgHarvest); err != nil {
		return fmt.Errorf("cfg: harvest: %w", err)
	}
	b.addEntry(b.f.Entry)

	if sec := b.f.Section(".rela.dyn"); sec != nil {
		for _, r := range elfx.ParseRela(sec.Data) {
			if r.Type != elfx.RX8664Relative {
				continue
			}
			t := uint64(r.Addend)
			if b.inText(t) && IsEndbr(b.f, t) {
				b.addEntry(t)
			}
		}
	}

	if b.opts.UseEhFrame {
		if sec := b.f.Section(".eh_frame"); sec != nil {
			ranges, err := ehframe.Parse(sec.Addr, sec.Data)
			switch {
			case harden.IsInjected(err):
				// Injected faults propagate strictly so tests can prove
				// the stage surfaces them.
				return fmt.Errorf("cfg: harvest: %w", err)
			case err != nil:
				// Real-world CFI corruption degrades: per the paper the
				// information is an accelerator, never a correctness
				// requirement, so drop the source and note it.
				b.g.Degraded = append(b.g.Degraded,
					fmt.Sprintf(".eh_frame entries skipped: %v", err))
			default:
				for _, fr := range ranges {
					// inText also discards FDEs whose pc-range escapes
					// the text section (harvesting them would seed bogus
					// entries and later mis-symbolize).
					if b.inText(fr.Start) && fr.Start+fr.Size <= b.g.TextEnd {
						b.addEntry(fr.Start)
					}
				}
			}
		}
	}
	return nil
}

func (b *builder) inText(addr uint64) bool {
	return addr >= b.g.TextStart && addr < b.g.TextEnd
}

func (b *builder) addEntry(addr uint64) bool {
	if !b.inText(addr) || b.entrySet[addr] {
		return false
	}
	b.graphVersion++
	b.entrySet[addr] = true
	i, _ := slices.BinarySearch(b.g.Entries, addr)
	b.g.Entries = slices.Insert(b.g.Entries, i, addr)
	b.enqueue(addr)
	return true
}

func (b *builder) enqueue(addr uint64) {
	if b.inText(addr) {
		b.work = append(b.work, addr)
	}
}

func (b *builder) drain() {
	for len(b.work) > 0 {
		if b.err != nil || b.canceled() {
			b.work = b.work[:0]
			return
		}
		addr := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.ensureBlock(addr)
	}
}

// at returns addr's slot in the owner index: the zero slot outside the
// text.
func (b *builder) at(addr uint64) slot {
	if !b.inText(addr) {
		return slot{}
	}
	return b.owner[addr-b.g.TextStart]
}

// locate finds the block and instruction index of an instruction address,
// or nil when no decoded instruction starts there.
func (b *builder) locate(addr uint64) (*Block, int) {
	s := b.at(addr)
	if s.blk == 0 || s.idx < 0 {
		return nil, 0
	}
	return b.blocks[s.blk-1], int(s.idx)
}

// ensureBlock makes addr a block start: reusing, splitting (Figure 5), or
// decoding fresh.
func (b *builder) ensureBlock(addr uint64) *Block {
	switch s := b.at(addr); {
	case s.blk == 0:
		return b.decode(addr)
	case s.idx > 0:
		return b.split(b.blocks[s.blk-1], int(s.idx))
	default:
		return b.blocks[s.blk-1]
	}
}

// newBlock registers blk under the next builder id and returns the id's
// slot value.
func (b *builder) newBlock(blk *Block) int32 {
	b.graphVersion++
	b.g.Blocks[blk.Addr] = blk
	b.blocks = append(b.blocks, blk)
	b.g.invalidatePreds()
	return int32(len(b.blocks))
}

// split cuts block y before instruction idx, creating the tail block and
// fall-through edge (the Figure 5 discover/split/merge sequence). The
// tail shares y's arena window; both halves are capped so neither can
// grow into the other.
func (b *builder) split(y *Block, idx int) *Block {
	cut := y.Addr
	for _, s := range y.Sizes[:idx] {
		cut += uint64(s)
	}
	n := len(y.Insts)
	z := &Block{
		Addr:    cut,
		Insts:   y.Insts[idx:n:n],
		Sizes:   y.Sizes[idx:n:n],
		Succs:   y.Succs,
		Fall:    y.Fall,
		HasFall: y.HasFall,
		Invalid: y.Invalid,
		Table:   y.Table,
	}
	y.Insts = y.Insts[:idx:idx]
	y.Sizes = y.Sizes[:idx:idx]
	y.Succs = nil
	y.Fall = cut
	y.HasFall = true
	y.Invalid = false
	y.Table = nil
	delete(b.tableVer, y.Addr) // y's terminator changed; reanalyze
	id := b.newBlock(z)
	off := cut - b.g.TextStart
	for i, s := range z.Sizes {
		b.owner[off] = slot{blk: id, idx: int32(i)}
		off += uint64(s)
	}
	if z.Table != nil {
		z.Table.BlockAdr = cut
	}
	return z
}

// decode disassembles a fresh block starting at addr.
func (b *builder) decode(addr uint64) *Block {
	blk := &Block{Addr: addr}
	id := b.newBlock(blk)
	b.owner[addr-b.g.TextStart] = slot{blk: id, idx: -1}
	if err := harden.Inject(harden.FPCfgDecode); err != nil {
		b.fail(fmt.Errorf("cfg: decode at %#x: %w", addr, err))
		blk.Invalid = true
		return blk
	}
	if len(b.blocks) > b.opts.MaxBlocks {
		b.fail(fmt.Errorf("cfg: %w",
			&harden.BudgetExceeded{Resource: "cfg.blocks", Limit: int64(b.opts.MaxBlocks)}))
		blk.Invalid = true
		return blk
	}

	b.decodeInsts(blk, id, addr)
	if n := len(b.arenaInsts); n > b.open {
		blk.Insts = b.arenaInsts[b.open:n:n]
		blk.Sizes = b.arenaSizes[b.open:n:n]
		b.open = n
	}
	return blk
}

// place appends a decoded instruction to the open window at the end of
// the arena. A full chunk is followed by one sized from the text: room
// for the instructions still to come, estimated as the text no placed
// instruction covers yet at the mean length placed so far (at first, at
// the longest length, so the first chunk holds the fewest instructions
// that could cover the text), plus twice the open window, which keeps
// growth geometric once the estimate runs dry. The open window moves to
// the new chunk, so a block never straddles two. A window is capped at
// its length once its block ends, so an append to a block copies
// instead of clobbering its arena neighbour.
func (b *builder) place(in x86.Inst, size uint8) {
	if len(b.arenaInsts) == cap(b.arenaInsts) {
		left := max(len(b.text.Data)-b.placedBytes, 0)
		est := left / x86.MaxInstLen
		if b.placedBytes > 0 {
			est = left * b.placedInsts / b.placedBytes
		}
		open := len(b.arenaInsts) - b.open
		n := est + 2*(open+1)
		insts, sizes := make([]x86.Inst, open, n), make([]uint8, open, n)
		copy(insts, b.arenaInsts[b.open:])
		copy(sizes, b.arenaSizes[b.open:])
		b.arenaInsts, b.arenaSizes, b.open = insts, sizes, 0
	}
	b.arenaInsts = append(b.arenaInsts, in)
	b.arenaSizes = append(b.arenaSizes, size)
	b.placedInsts++
	b.placedBytes += int(size)
}

// decodeInsts decodes blk's instructions from addr into the arena's
// open window, setting the block's edges and validity as it ends. id is
// blk's slot value in the owner index.
func (b *builder) decodeInsts(blk *Block, id int32, addr uint64) {
	cur := addr
	for {
		if cur != addr {
			// Merge into an existing block or boundary (Figure 5c). The
			// slot cannot be blk's own: its addresses only grow.
			if s := b.at(cur); s.blk != 0 {
				if s.idx > 0 {
					b.split(b.blocks[s.blk-1], int(s.idx))
				}
				blk.Fall = cur
				blk.HasFall = true
				return
			}
		}
		idx := len(b.arenaInsts) - b.open
		if !b.inText(cur) || idx >= b.opts.MaxBlockInsts {
			blk.Invalid = true
			return
		}
		b.totalInsts++
		if b.totalInsts > b.opts.MaxTotalInsts {
			b.fail(fmt.Errorf("cfg: %w",
				&harden.BudgetExceeded{Resource: "cfg.insts", Limit: b.opts.MaxTotalInsts}))
			blk.Invalid = true
			return
		}
		off := cur - b.text.Addr
		in, size, err := x86.Decode(b.text.Data[off:])
		if err != nil {
			blk.Invalid = true
			return
		}
		b.owner[off] = slot{blk: id, idx: int32(idx)}
		b.place(in, uint8(size))
		next := cur + uint64(size)

		// Decode-time harvest (§3.2.1): a RIP-relative reference to
		// endbr64 is a static property of the instruction, so scanning it
		// once here covers every block without a per-round rescan.
		if t, ok := in.RipTarget(cur, size); ok && b.inText(t) && IsEndbr(b.f, t) {
			if b.addEntry(t) {
				b.harvestGrew = true
			}
		}

		switch in.Op {
		case x86.RET, x86.UD2, x86.HLT, x86.INT3:
			return
		case x86.JMP:
			if tgt, ok := in.BranchTarget(cur, size); ok {
				if b.inText(tgt) {
					blk.Succs = append(blk.Succs, tgt)
					b.enqueue(tgt)
				} else {
					blk.Invalid = true
				}
			} else {
				// Indirect: resolved later by table analysis.
				b.jmps = append(b.jmps, cur)
			}
			return
		case x86.JCC:
			if tgt, ok := in.BranchTarget(cur, size); ok && b.inText(tgt) {
				blk.Succs = append(blk.Succs, tgt)
				b.enqueue(tgt)
			} else {
				blk.Invalid = true
				return
			}
			blk.Fall = next
			blk.HasFall = true
			b.enqueue(next)
			return
		case x86.CALL:
			// Calls do not end blocks: the fall-through edge is included
			// without non-returning analysis (§3.2.2). Direct call
			// targets are function entries.
			if tgt, ok := in.BranchTarget(cur, size); ok {
				if b.inText(tgt) {
					b.addEntry(tgt)
				} else {
					blk.Invalid = true
					return
				}
			}
		}
		cur = next
	}
}
