package emu

import (
	"fmt"

	"repro/internal/x86"
)

// The tiered engine is the machine's default execution engine: it
// lifts hot basic blocks into superblocks of pre-bound micro-op
// closures and dispatches them direct-threaded, with every per-step
// cost that the interpreter pays at execution time — operand decode,
// the big opcode switch, effective-address interpretation — paid once
// at translation time instead.
//
// The interpreter remains the semantic ground truth. The engine runs a
// translated block only when every observable effect will be
// bit-identical to interpreting the same instructions: the step
// counter, Profile counters (opcode histogram, block heat, CET
// events, syscall log), CET enforcement, error text, and register/
// memory state. A block that starts with endbr64 performs a pending
// indirect-branch check itself. Everything else it cannot guarantee up
// front falls back to the interpreter's step:
//   - a cold leader's first arrival, which steps its straight-line run
//     up to the next control transfer;
//   - an instruction the translator declines (one that straddles a
//     page boundary, or undecodable bytes);
//   - a pending endbr64 check on a block that does not start with
//     endbr64, where the interpreter raises the violation;
//   - a step budget that could expire mid-block.
//
// Each of the last three steps exactly one instruction. The next
// instruction, like a translated block's exit, is a leader again, so
// execution re-enters translated code as soon as a block exists there.
//
// Translations are keyed on (plane version, entry address). The plane
// version identifies the generation of the machine's decode planes:
// executable pages are immutable (W^X is enforced at load), so
// translations stay sound across Reset and Reload of the identical
// image, and Reload invalidates the planes — bumping the version and
// dropping the translation cache — when it detects a different image
// or bias.

const (
	// hotThreshold is the number of block entries that triggers
	// translation: the second arrival translates. Measured on the
	// benchmark corpus, threshold 2 puts >95% of block executions
	// inside translated code while skipping run-once init/epilogue
	// blocks.
	hotThreshold = 2

	// maxBlockOps caps superblock length; longer straight-line runs
	// split into blocks that fall through to each other (a block's
	// fall-through end is a leader, so its successor translates too).
	maxBlockOps = 256

	// tlbWays sizes the direct-mapped data TLBs (one read, one write).
	tlbWays = 64
)

// tlbInvalid tags an empty TLB way; it is not page-aligned, so no
// real page tag collides with it.
const tlbInvalid = ^uint64(0)

type tlbEnt struct {
	page uint64 // page-aligned address, tlbInvalid when empty
	data []byte // the page's backing bytes
}

// uop is one translated instruction: a closure over its pre-resolved
// operands. The return value tells the dispatch loop what happened.
type uop func(e *engine) int

// uop results.
const (
	uNext = iota // fall through to the next op in the block
	uEnd         // control transferred; the closure set RIP
	uExit        // the program exited (exit syscall); RIP is at the next inst
	uErr         // e.err holds the raw error; the closure set RIP
)

// opMeta retains per-instruction identity for the dispatch loop's
// profile hooks and error wrapping — the data the interpreter would
// have in hand at the equivalent step. It is pointer-free and 16
// bytes; the error path re-reads the full instruction through the
// machine's memoized plane decode (see opError).
type opMeta struct {
	addr uint64
	op   x86.Op
	size uint8
}

// block is one translated superblock.
type block struct {
	entry   uint64
	ops     []uop
	meta    []opMeta
	endFall uint64 // RIP when execution runs off the end of ops
}

// engine is the per-machine tiered state (Machine.tier). It survives
// Reset, so translations amortize across Reload of the same image.
type engine struct {
	m *Machine

	// planeVersion is the decode-plane generation blocks was built
	// against; a mismatch with the machine's current version drops the
	// cache.
	planeVersion uint64

	// blocks is the translation cache, keyed by entry address. A nil
	// value is a negative entry: translation was attempted and nothing
	// came of it (non-executable page, undecodable or page-spanning
	// first instruction), which is a stable property of the immutable
	// text bytes.
	blocks map[uint64]*block

	// counts tracks block-entry arrivals below the translation
	// threshold.
	counts map[uint64]uint32

	rtlb [tlbWays]tlbEnt
	wtlb [tlbWays]tlbEnt

	stats TierStats

	// err carries the raw error out of a uop closure to the dispatch
	// loop, which wraps it exactly as the interpreter would.
	err error

	// opsBuf and metaBuf are translate's growth buffers: a block is
	// built in them and then copied out at its exact size.
	opsBuf  []uop
	metaBuf []opMeta
}

// runTiered drives m to completion on the tiered engine.
func (m *Machine) runTiered() error {
	e := m.tier
	if e == nil {
		e = &engine{m: m, planeVersion: m.planeVersion}
		e.blocks = make(map[uint64]*block)
		e.counts = make(map[uint64]uint32)
		m.tier = e
	}
	if v := m.planeVersion; v != e.planeVersion {
		e.blocks = make(map[uint64]*block)
		e.counts = make(map[uint64]uint32)
		e.planeVersion = v
		e.stats.Invalidations++
	}
	e.flushTLB()
	e.seed()
	return e.loop()
}

// flushTLB empties the data TLBs. Reset gives the machine a fresh
// Memory, so cached page pointers from the previous run are stale;
// within one run they stay valid because pages never move and nothing
// re-protects them after load.
func (e *engine) flushTLB() {
	for i := range e.rtlb {
		e.rtlb[i] = tlbEnt{page: tlbInvalid}
	}
	for i := range e.wtlb {
		e.wtlb[i] = tlbEnt{page: tlbInvalid}
	}
}

// seed folds Options.HeatSeed — block heat from a prior profiled run —
// into the arrival counters, so known-hot blocks translate on first
// encounter. Raising a counter to the threshold is idempotent, so
// re-seeding on every run is safe.
func (e *engine) seed() {
	for addr, n := range e.m.heatSeed {
		c := uint32(hotThreshold)
		if n < hotThreshold {
			c = uint32(n)
		}
		if e.counts[addr] < c {
			e.counts[addr] = c
		}
	}
}

// loop is the tiered run loop: translated superblocks where they
// exist and every guard passes, interpreter single-steps everywhere
// else.
func (e *engine) loop() error {
	m := e.m
	// atLeader marks the addresses worth looking up or counting: run
	// entry, control-transfer targets, a translated block's exit (its
	// fall-through end included), and the instruction after a forced
	// single step. Only the sequential continuation of a cold leader's
	// interpreted run is mid-block by construction.
	atLeader := true
	for {
		if m.exited {
			return nil
		}
		rip := m.RIP
		if atLeader {
			b, cold := e.enter(rip)
			if b != nil {
				e.stats.CacheHits++
				endbr := m.EnforceCET && m.expectEndbr
				switch {
				case endbr && b.meta[0].op != x86.ENDBR64:
					// The missing-endbr64 violation belongs to the
					// interpreter: one Step raises it bit-identically.
					e.stats.GuardCET++
				case m.Steps+uint64(len(b.ops)) > m.MaxSteps:
					// The budget could expire inside the block; the
					// interpreter's per-step check produces the exact
					// budget error at the exact instruction.
					e.stats.GuardBudget++
				default:
					var err error
					if m.Prof == nil && m.TraceFn == nil {
						// Nothing observes the check: the entry endbr64
						// passes it before any other effect.
						m.expectEndbr = false
						err = e.runFast(b)
					} else {
						err = e.runProfiled(b, endbr)
					}
					if err != nil {
						return err
					}
					continue
				}
			} else {
				e.stats.CacheMisses++
			}
			if !cold {
				// A forced step (guard or negative cache entry): the
				// next instruction is a leader again.
				if _, err := m.step(); err != nil {
					return err
				}
				continue
			}
		}
		// Interpreter fallback for a cold stretch: the next instruction
		// is a leader unless this one fell through to it.
		size, err := m.step()
		if err != nil {
			return err
		}
		atLeader = m.RIP != rip+uint64(size)
	}
}

// enter returns the translated block at leader rip, translating it on
// the arrival that reaches hotThreshold. A nil block with cold set is
// a leader still warming up; a nil block without it is a negative
// cache entry.
func (e *engine) enter(rip uint64) (b *block, cold bool) {
	b, ok := e.blocks[rip]
	if ok {
		return b, false
	}
	c := e.counts[rip] + 1
	if c < hotThreshold {
		e.counts[rip] = c
		return nil, true
	}
	b = e.translate(rip)
	e.blocks[rip] = b
	delete(e.counts, rip)
	return b, false
}

// runFast dispatches a block with profiling and tracing off — the
// validation hot path. The caller has verified the step budget covers
// the whole block and has passed any pending endbr64 check.
func (e *engine) runFast(b *block) error {
	m := e.m
	ops := b.ops
	e.stats.Blocks++
	i := 0
	for {
		m.Steps++
		switch ops[i](e) {
		case uNext:
			if i++; i < len(ops) {
				continue
			}
			m.RIP = b.endFall
			e.stats.TierSteps += uint64(len(ops))
			e.stats.ExitFall++
			return nil
		case uEnd:
			e.stats.TierSteps += uint64(i + 1)
			if i == len(ops)-1 {
				e.stats.ExitBranch++
			} else {
				e.stats.ExitSide++
			}
			return nil
		case uExit:
			e.stats.TierSteps += uint64(i + 1)
			e.stats.ExitExit++
			return nil
		default: // uErr
			e.stats.TierSteps += uint64(i + 1)
			e.stats.ExitError++
			return e.opError(b.meta[i].addr)
		}
	}
}

// runProfiled is runFast plus the interpreter's per-step trace and
// profile hooks, in the interpreter's order: step count, trace,
// opcode histogram, leader heat, profSeq advance, the endbr64 check,
// then execution. ibt reports a pending endbr64 check, which the
// block's leading ENDBR64 passes.
func (e *engine) runProfiled(b *block, ibt bool) error {
	m := e.m
	ops := b.ops
	e.stats.Blocks++
	i := 0
	for {
		mt := &b.meta[i]
		m.Steps++
		if m.TraceFn != nil {
			m.TraceFn(mt.addr)
		}
		p := m.Prof
		if p != nil {
			p.Opcode[mt.op]++
			if mt.addr != m.profSeq {
				p.Heat[mt.addr]++
			}
			m.profSeq = mt.addr + uint64(mt.size)
		}
		if ibt {
			if p != nil {
				p.IBTChecks++
			}
			m.expectEndbr = false
			ibt = false
		}
		switch ops[i](e) {
		case uNext:
			if i++; i < len(ops) {
				continue
			}
			m.RIP = b.endFall
			e.stats.TierSteps += uint64(len(ops))
			e.stats.ExitFall++
			return nil
		case uEnd:
			e.stats.TierSteps += uint64(i + 1)
			if i == len(ops)-1 {
				e.stats.ExitBranch++
			} else {
				e.stats.ExitSide++
			}
			return nil
		case uExit:
			e.stats.TierSteps += uint64(i + 1)
			e.stats.ExitExit++
			return nil
		default: // uErr
			e.stats.TierSteps += uint64(i + 1)
			e.stats.ExitError++
			return e.opError(mt.addr)
		}
	}
}

// opError wraps e.err exactly as the interpreter wraps a failing
// instruction's error. The instruction text comes from fetch: the
// same memoized plane decode the block was translated from, so the
// message is byte-identical to the one a block-held Inst would give.
func (e *engine) opError(addr uint64) error {
	in, _, _ := e.m.fetch(addr)
	return fmt.Errorf("at %#x (%s): %w", addr, in, e.err)
}
