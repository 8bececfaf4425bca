package cfg

import (
	"bytes"
	"fmt"
	"sort"

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

// ownerBytesPerInst sizes the owner map up front: one decoded
// instruction per this many text bytes. Compiled code averages about 3.4
// bytes per instruction, so the map seldom grows.
const ownerBytesPerInst = 3

type ownerRef struct {
	block *Block
	idx   int
}

type builder struct {
	f    *elfx.File
	text *elfx.Section
	opts Options
	g    *Graph

	owner    map[uint64]ownerRef
	entrySet map[uint64]bool
	work     []uint64

	// knownBases records every candidate table base seen so far; the
	// BoundsCmp fallback uses them as scan barriers.
	knownBases  map[uint64]bool
	useBarriers bool

	// insts/sizes are decode's scratch: a block's instructions are
	// appended here and copied once into exact-size Block slices.
	insts []x86.Inst
	sizes []int

	// graphVersion counts graph mutations (new block, split, new entry,
	// new table base). A dispatch whose table was analyzed at the current
	// version cannot produce a different result, so analyzeAllTables
	// skips it — the converged final round touches no table at all.
	graphVersion uint64
	tableVer     map[uint64]uint64

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
		owner:      make(map[uint64]ownerRef, min(int64(len(text.Data)/ownerBytesPerInst), opts.MaxTotalInsts)),
		entrySet:   make(map[uint64]bool),
		knownBases: make(map[uint64]bool),
		tableVer:   make(map[uint64]uint64),
	}
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
	sort.Slice(b.g.Entries, func(i, j int) bool { return b.g.Entries[i] < b.g.Entries[j] })
	sort.Slice(b.g.Tables, func(i, j int) bool { return b.g.Tables[i].JmpAddr < b.g.Tables[j].JmpAddr })
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
	b.g.Entries = append(b.g.Entries, addr)
	sort.Slice(b.g.Entries, func(i, j int) bool { return b.g.Entries[i] < b.g.Entries[j] })
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

// ensureBlock makes addr a block start: reusing, splitting (Figure 5), or
// decoding fresh.
func (b *builder) ensureBlock(addr uint64) *Block {
	if blk, ok := b.g.Blocks[addr]; ok {
		return blk
	}
	if ref, ok := b.owner[addr]; ok && ref.idx > 0 {
		return b.split(ref.block, ref.idx)
	}
	return b.decode(addr)
}

// split cuts block y before instruction idx, creating the tail block and
// fall-through edge (the Figure 5 discover/split/merge sequence). The
// tail shares y's backing arrays; both halves are capped so neither can
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
	b.graphVersion++
	delete(b.tableVer, y.Addr) // y's terminator changed; reanalyze
	b.g.Blocks[cut] = z
	a := cut
	for i, s := range z.Sizes {
		b.owner[a] = ownerRef{block: z, idx: i}
		a += uint64(s)
	}
	if z.Table != nil {
		z.Table.BlockAdr = cut
	}
	b.g.invalidatePreds()
	return z
}

// decode disassembles a fresh block starting at addr.
func (b *builder) decode(addr uint64) *Block {
	blk := &Block{Addr: addr}
	b.graphVersion++
	b.g.Blocks[addr] = blk
	b.g.invalidatePreds()
	if err := harden.Inject(harden.FPCfgDecode); err != nil {
		b.fail(fmt.Errorf("cfg: decode at %#x: %w", addr, err))
		blk.Invalid = true
		return blk
	}
	if len(b.g.Blocks) > b.opts.MaxBlocks {
		b.fail(fmt.Errorf("cfg: %w",
			&harden.BudgetExceeded{Resource: "cfg.blocks", Limit: int64(b.opts.MaxBlocks)}))
		blk.Invalid = true
		return blk
	}

	b.insts, b.sizes = b.insts[:0], b.sizes[:0]
	b.decodeInsts(blk, addr)
	if n := len(b.insts); n > 0 {
		blk.Insts = make([]x86.Inst, n)
		blk.Sizes = make([]int, n)
		copy(blk.Insts, b.insts)
		copy(blk.Sizes, b.sizes)
	}
	return blk
}

// decodeInsts decodes blk's instructions from addr into the builder's
// scratch slices, setting the block's edges and validity as it ends.
func (b *builder) decodeInsts(blk *Block, addr uint64) {
	cur := addr
	for {
		if cur != addr {
			// Merge into an existing block or boundary (Figure 5c).
			if _, ok := b.g.Blocks[cur]; ok {
				blk.Fall = cur
				blk.HasFall = true
				return
			}
			if ref, ok := b.owner[cur]; ok && ref.block != blk {
				b.split(ref.block, ref.idx)
				blk.Fall = cur
				blk.HasFall = true
				return
			}
		}
		if !b.inText(cur) || len(b.insts) >= b.opts.MaxBlockInsts {
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
		b.owner[cur] = ownerRef{block: blk, idx: len(b.insts)}
		b.insts = append(b.insts, in)
		b.sizes = append(b.sizes, size)
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
			}
			// Indirect jumps are resolved later by table analysis.
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
