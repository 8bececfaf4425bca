package emu

// translate lifts the superblock entered at entry into bound micro-op
// closures, or returns nil when nothing is translatable there (the
// negative result is cached: text bytes are immutable).
//
// A superblock is the straight-line run from entry: it extends through
// not-taken conditional branches (a taken jcc is a side exit) and ends
// at an unconditional transfer (JMP, CALL, RET), a terminal fault
// producer (HLT, UD2, INT3), the page boundary (the decode plane is
// per-page; a spanning instruction single-steps through the
// interpreter's slow fetch), the maxBlockOps cap, or the first
// instruction the binder declines. SYSCALL stays inside the block —
// it returns to the next instruction.
func (e *engine) translate(entry uint64) *block {
	pa := entry &^ (PageSize - 1)
	pl := e.m.pagePlane(pa)
	if pl == nil {
		return nil
	}
	ops, meta := e.opsBuf[:0], e.metaBuf[:0]
	addr := entry
	for len(ops) < maxBlockOps && addr&^(PageSize-1) == pa {
		in, size, err := pl.Decode(int(addr - pa))
		if err != nil {
			break
		}
		u, term := bindOp(in, addr, size)
		if u == nil {
			break
		}
		ops = append(ops, u)
		meta = append(meta, opMeta{addr: addr, op: in.Op, size: uint8(size)})
		addr += uint64(size)
		if term {
			break
		}
	}
	e.opsBuf, e.metaBuf = ops, meta
	if len(ops) == 0 {
		return nil
	}
	e.stats.Translations++
	e.stats.TransInsts += uint64(len(ops))
	return &block{
		entry:   entry,
		ops:     append([]uop(nil), ops...),
		meta:    append([]opMeta(nil), meta...),
		endFall: addr,
	}
}
