// Package instr is SURI's composable binary-instrumentation layer: a
// pass framework over the S' entry stream (§3.1 step 4, "users can
// modify S' at this stage") replacing ad-hoc core.Instrumenter hooks
// with reusable, composable passes.
//
// A Pass visits well-defined insertion points — function entry (the
// endbr64 landing pad), basic-block entry, before an indirect
// call/jmp, before ret, plus the prologue/epilogue/memory-access
// patterns the sanitizer uses — and returns entries to splice before
// or after each anchor. The framework owns the invariants that make
// naive S' editing unsound:
//
//   - CET/IBT: nothing may sit between an indirect-branch target label
//     and its endbr64, so before-insertions on an endbr64 anchor are
//     slid to just after it.
//   - Labels: an anchor's labels move onto the first inserted entry so
//     branches into the block execute the instrumentation.
//   - Composition: every pass sees the original site census, never
//     another pass's insertions, so composition is deterministic and
//     order-independent in what it observes (inserted code runs in
//     pass order at shared anchors).
//
// Passes leave runtime artifacts in a payload data region: Context
// Alloc claims RIP-addressable zero-initialized slices that the
// emitter appends as the writable .suri.instr section. Because the
// region is separate from program state and differential validation
// compares only stdout and exit status, instrumented binaries still
// pass core.RewriteValidated.
//
// Register/flag discipline: inserted code must preserve every register
// and the flags at the anchor. SaveRegs/RestoreRegs spill registers to
// per-pass payload slots with plain MOVs — deliberately not push/pop,
// which would move RSP and corrupt RSP-relative operands (including
// the [RSP] return-address reads the shadow stack needs) and the red
// zone. The emulated ISA has no PUSHFQ/LAHF, so the standard passes
// are written flag-transparently: only MOV and LEA (LEA arithmetic for
// increments), with CMP/JCC used solely at flag-dead sites (before
// ret, where the SysV ABI makes flags dead).
package instr

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/serialize"
	"repro/internal/x86"
)

// Point is a bitmask of insertion points a site offers.
type Point uint8

// Insertion points.
const (
	// FuncEntry is a function entry: a labeled endbr64 landing pad.
	// Before-insertions here are slid after the endbr64 (CET rule).
	FuncEntry Point = 1 << iota

	// BlockEntry is a basic-block entry: the labeled first instruction
	// of a serialized block.
	BlockEntry

	// BeforeIndirect is an indirect call or jump (register or memory
	// target). Insertions run with the target operand still live.
	BeforeIndirect

	// BeforeRet is a ret instruction. Flags are dead here (SysV ABI),
	// so CMP/JCC sequences are safe.
	BeforeRet

	// Prologue is the instruction completing a frame setup
	// (endbr64; push rbp; mov rbp,rsp; sub rsp,N — the sub).
	Prologue

	// Epilogue is the instruction starting a frame teardown
	// (mov rsp,rbp; pop rbp; ret — the mov).
	Epilogue

	// MemAccess is any instruction with an explicit memory operand
	// (Site.Mem); passes apply their own filters.
	MemAccess
)

// Site is one instrumentable entry in the input stream. Ordinals are
// dense per-point indices (Block counts labeled entries, Func labeled
// endbr64s, and so on); -1 means the point is absent at this site.
type Site struct {
	// Index is the entry's position in the input stream.
	Index int

	// Entry points at the anchor entry (read-only).
	Entry *serialize.Entry

	// Points is the set of insertion points this site offers.
	Points Point

	// Block, Func, Indirect, Ret are per-point ordinals (-1 if absent).
	Block, Func, Indirect, Ret int

	// Mem is the memory operand when Points has MemAccess.
	Mem x86.Mem
}

// Pass is one instrumentation transform. Standard passes are stateless
// values (per-run state lives in the Context), so one Pass value is
// safe across concurrent Apply calls.
type Pass interface {
	// Name is the pass's registry name; it namespaces payload symbols
	// and labels, so it must be unique within one Apply.
	Name() string

	// Setup runs once before visiting, typically claiming payload
	// regions sized from the Context census.
	Setup(ctx *Context) error

	// Visit returns entries to splice before and after the site's
	// anchor. Returned entries are marked synthesized by the framework;
	// they must preserve all registers and flags (see package doc).
	Visit(ctx *Context, s Site) (before, after []serialize.Entry)

	// Epilogue returns entries appended after the whole stream (shared
	// routines such as failure reporters). May be nil.
	Epilogue(ctx *Context) []serialize.Entry
}

// Fingerprinter is an optional Pass refinement: a stable identity
// string covering the pass's name, configuration, and codegen version.
// The farm cache keys instrumented artifacts on it; a pass list where
// every pass implements Fingerprinter is cacheable.
type Fingerprinter interface {
	Fingerprint() string
}

// Context is a pass's per-run view: the site census plus payload and
// label allocators. One Context per pass per Apply.
type Context struct {
	// Entries is the input stream (read-only).
	Entries []serialize.Entry

	// Syms is the stream's symbol table; Sym, Alloc and Label intern
	// into it, and a pass interns any other name it references here.
	Syms *asm.Symtab

	// Sites lists every instrumentable site, in stream order.
	Sites []Site

	// Blocks, Funcs, Indirects, Rets are the census totals, available
	// to Setup for sizing payload regions.
	Blocks, Funcs, Indirects, Rets int

	pass         string
	payload      []asm.Item
	payloadBytes int
	labelSeq     int
	spill        map[x86.Reg]asm.Sym
}

// Sym returns the payload symbol for a region the pass allocates (or
// will allocate) with Alloc, named "instr$<pass>$<name>". Deterministic,
// so stateless passes can recompute it in Visit.
func (c *Context) Sym(name string) asm.Sym {
	return c.Syms.Intern("instr$" + c.pass + "$" + name)
}

// Alloc claims size zero-initialized bytes in the payload region,
// aligned to align, and returns the region's symbol. The emitter
// places the payload as the writable .suri.instr section, so inserted
// code addresses it RIP-relatively (PIE-safe) and runs leave it
// readable in the artifact and in emulator memory (surirun -cov).
func (c *Context) Alloc(name string, size, align int) asm.Sym {
	sym := c.Sym(name)
	if size < 1 {
		size = 1
	}
	if align > 1 {
		c.payload = append(c.payload, asm.AlignTo{N: uint64(align)})
	}
	c.payload = append(c.payload, asm.Label{Sym: sym}, asm.Space{N: uint64(size)})
	c.payloadBytes += size
	return sym
}

// Label returns a fresh local label unique within the pass and run.
func (c *Context) Label(prefix string) asm.Sym {
	c.labelSeq++
	return c.Syms.Intern(fmt.Sprintf(".Linstr_%s_%s%d", c.pass, prefix, c.labelSeq))
}

// SaveRegs spills the registers to dedicated payload slots with plain
// RIP-relative MOV stores. RSP and flags are untouched, so every
// anchor operand (including RSP-relative ones) stays valid.
func (c *Context) SaveRegs(regs ...x86.Reg) []serialize.Entry {
	out := make([]serialize.Entry, 0, len(regs))
	for _, r := range regs {
		out = append(out, RipStore(c.spillSlot(r), r))
	}
	return out
}

// RestoreRegs reloads registers spilled by SaveRegs.
func (c *Context) RestoreRegs(regs ...x86.Reg) []serialize.Entry {
	out := make([]serialize.Entry, 0, len(regs))
	for _, r := range regs {
		out = append(out, RipLoad(r, c.spillSlot(r)))
	}
	return out
}

func (c *Context) spillSlot(r x86.Reg) asm.Sym {
	if c.spill == nil {
		c.spill = make(map[x86.Reg]asm.Sym)
	}
	if s, ok := c.spill[r]; ok {
		return s
	}
	s := c.Alloc("spill_"+r.Name(8), 8, 8)
	c.spill[r] = s
	return s
}

// RipLoad builds "mov dst, [RIP+sym]" (no flags touched).
func RipLoad(dst x86.Reg, sym asm.Sym) serialize.Entry {
	return serialize.Entry{
		Ins:   asm.Ins{Inst: x86.Inst{Op: x86.MOV, W: 8, Dst: dst.Arg(), Src: ripMem().Arg()}, Target: sym},
		Synth: true,
	}
}

// RipStore builds "mov [RIP+sym], src" (no flags touched).
func RipStore(sym asm.Sym, src x86.Reg) serialize.Entry {
	return serialize.Entry{
		Ins:   asm.Ins{Inst: x86.Inst{Op: x86.MOV, W: 8, Dst: ripMem().Arg(), Src: src.Arg()}, Target: sym},
		Synth: true,
	}
}

// RipLea builds "lea dst, [RIP+sym]" (no flags touched).
func RipLea(dst x86.Reg, sym asm.Sym) serialize.Entry {
	return serialize.Entry{
		Ins:   asm.Ins{Inst: x86.Inst{Op: x86.LEA, W: 8, Dst: dst.Arg(), Src: ripMem().Arg()}, Target: sym},
		Synth: true,
	}
}

func ripMem() x86.Mem {
	return x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}
}

// Options configure Apply. Budget/Cancel integrate with the harden
// layer; Obs records one child span per pass.
type Options struct {
	Budget harden.Budget
	Cancel <-chan struct{}
	Obs    *obs.Collector
}

// Result is a completed instrumentation run.
type Result struct {
	// Entries is the instrumented stream.
	Entries []serialize.Entry

	// Inserted marks, parallel to Entries, which entries the passes
	// inserted (false for original and pre-existing synthesized ones).
	Inserted []bool

	// Payload is the pass data region as assembler items for the
	// emitter's .suri.instr section; PayloadBytes is its total size.
	Payload      []asm.Item
	PayloadBytes int

	// Added counts inserted entries; Passes counts passes run.
	Added  int
	Passes int
}

// Apply runs the passes over the stream and merges their insertions.
// Each pass sees the same census of the input stream — never another
// pass's output — so composition is deterministic; at shared anchors
// inserted code executes in pass order. Labels and payload symbols are
// interned in syms, the stream's symbol table.
func Apply(entries []serialize.Entry, syms *asm.Symtab, passes []Pass, opts Options) (*Result, error) {
	if len(passes) == 0 {
		return &Result{Entries: entries, Inserted: make([]bool, len(entries))}, nil
	}
	sites, totals := census(entries)

	type splice struct{ before, after []serialize.Entry }
	splices := make([]splice, len(entries))
	var tail []serialize.Entry
	res := &Result{Passes: len(passes)}
	tr := opts.Obs.Trace()

	seen := make(map[string]bool, len(passes))
	for _, p := range passes {
		if canceled(opts.Cancel) {
			return nil, harden.ErrCanceled
		}
		if err := harden.Inject(harden.FPInstrPass); err != nil {
			return nil, fmt.Errorf("instr: pass %s: %w", p.Name(), err)
		}
		if seen[p.Name()] {
			return nil, fmt.Errorf("instr: duplicate pass %q", p.Name())
		}
		seen[p.Name()] = true

		span := tr.Start("pass." + p.Name())
		ctx := &Context{
			Entries: entries, Syms: syms, Sites: sites,
			Blocks: totals.blocks, Funcs: totals.funcs,
			Indirects: totals.indirects, Rets: totals.rets,
			pass: p.Name(),
		}
		if err := p.Setup(ctx); err != nil {
			span.End()
			return nil, fmt.Errorf("instr: pass %s: setup: %w", p.Name(), err)
		}
		added := 0
		for i := range ctx.Sites {
			before, after := p.Visit(ctx, ctx.Sites[i])
			markSynth(before)
			markSynth(after)
			sp := &splices[ctx.Sites[i].Index]
			sp.before = append(sp.before, before...)
			sp.after = append(sp.after, after...)
			added += len(before) + len(after)
		}
		ep := p.Epilogue(ctx)
		markSynth(ep)
		tail = append(tail, ep...)
		added += len(ep)

		res.Added += added
		res.Payload = append(res.Payload, ctx.payload...)
		res.PayloadBytes += ctx.payloadBytes
		span.SetInt("inserted", int64(added))
		span.SetInt("payload_bytes", int64(ctx.payloadBytes))
		span.End()
	}

	out := make([]serialize.Entry, 0, len(entries)+res.Added)
	marks := make([]bool, 0, len(entries)+res.Added)
	for i := range entries {
		e := entries[i]
		before, after := splices[i].before, splices[i].after
		if len(before) > 0 && !e.Synth && e.Inst.Op == x86.ENDBR64 {
			// CET/IBT: an indirect-branch target label must be followed
			// immediately by its endbr64; slide before-insertions after it.
			after = append(append([]serialize.Entry{}, before...), after...)
			before = nil
		}
		if len(before) > 0 && e.Label != 0 {
			// Branches into the block must execute the instrumentation:
			// the anchor's labels move onto the first inserted entry.
			serialize.MoveLabels(syms, &before[0], &e)
		}
		for _, b := range before {
			out = append(out, b)
			marks = append(marks, true)
		}
		out = append(out, e)
		marks = append(marks, false)
		for _, a := range after {
			out = append(out, a)
			marks = append(marks, true)
		}
	}
	for _, t := range tail {
		out = append(out, t)
		marks = append(marks, true)
	}

	budget := opts.Budget.WithDefaults()
	if int64(len(out)) > budget.TotalInsts {
		return nil, &harden.BudgetExceeded{Resource: "instr.entries", Limit: budget.TotalInsts}
	}
	res.Entries = out
	res.Inserted = marks
	return res, nil
}

type totals struct {
	blocks, funcs, indirects, rets int
}

// census scans the stream once and classifies every non-synthesized
// entry. Sites never cover synthesized entries (serializer traps,
// earlier raw-hook insertions), so passes anchor only to real code.
func census(entries []serialize.Entry) ([]Site, totals) {
	var sites []Site
	var t totals
	for i := range entries {
		e := &entries[i]
		if e.Synth {
			continue
		}
		s := Site{Index: i, Entry: e, Block: -1, Func: -1, Indirect: -1, Ret: -1}
		if e.Label != 0 {
			s.Points |= BlockEntry
			s.Block = t.blocks
			t.blocks++
			if e.Inst.Op == x86.ENDBR64 {
				s.Points |= FuncEntry
				s.Func = t.funcs
				t.funcs++
			}
		}
		if e.Inst.IsIndirectBranch() {
			s.Points |= BeforeIndirect
			s.Indirect = t.indirects
			t.indirects++
		}
		if e.Inst.Op == x86.RET {
			s.Points |= BeforeRet
			s.Ret = t.rets
			t.rets++
		}
		if isProloguePoint(entries, i) {
			s.Points |= Prologue
		}
		if isEpiloguePoint(entries, i) {
			s.Points |= Epilogue
		}
		if m, ok := e.Inst.MemArg(); ok {
			s.Points |= MemAccess
			s.Mem = m
		}
		if s.Points != 0 {
			sites = append(sites, s)
		}
	}
	return sites, t
}

// isProloguePoint reports whether entries[i] is the "sub rsp, N"
// completing a prologue (endbr64; push rbp; mov rbp,rsp; sub rsp,N).
func isProloguePoint(entries []serialize.Entry, i int) bool {
	e := entries[i]
	if e.Synth || e.Inst.Op != x86.SUB {
		return false
	}
	d, ok := e.Inst.Dst.AsReg()
	if !ok || d != x86.RSP {
		return false
	}
	if e.Inst.Src.Kind != x86.ArgImm {
		return false
	}
	// Preceding instruction should be "mov rbp, rsp".
	for j := i - 1; j >= 0 && j >= i-2; j-- {
		p := entries[j]
		if p.Synth {
			continue
		}
		if p.Inst.Op == x86.MOV {
			if pd, ok := p.Inst.Dst.AsReg(); ok && pd == x86.RBP {
				if ps, ok := p.Inst.Src.AsReg(); ok && ps == x86.RSP {
					return true
				}
			}
		}
		return false
	}
	return false
}

// isEpiloguePoint reports whether entries[i] starts
// "mov rsp, rbp; pop rbp; ret".
func isEpiloguePoint(entries []serialize.Entry, i int) bool {
	e := entries[i]
	if e.Synth || e.Inst.Op != x86.MOV {
		return false
	}
	d, dok := e.Inst.Dst.AsReg()
	s, sok := e.Inst.Src.AsReg()
	if !dok || !sok || d != x86.RSP || s != x86.RBP {
		return false
	}
	if i+2 >= len(entries) {
		return false
	}
	return entries[i+1].Inst.Op == x86.POP && entries[i+2].Inst.Op == x86.RET
}

func markSynth(es []serialize.Entry) {
	for i := range es {
		es[i].Synth = true
	}
}

func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
