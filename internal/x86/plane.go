package x86

// Plane is a decode plane over one text slab: a table indexed by byte
// offset that memoizes the result of Decode at each offset, making every
// decode after the first a single indexed load and a struct copy. The
// emulator keeps one per executable page, where the same instructions
// are fetched millions of times.
//
// A Plane is not safe for concurrent use: each machine owns its planes.
// Entry storage is chunked and allocated on first touch, one entry per
// offset, so the hit path has no indirection beyond the chunk index.
type Plane struct {
	text   []byte
	chunks []*planeChunk
}

// planeChunkShift sizes a chunk at 512 entries: big enough to amortize
// the allocation across a basic block's worth of decodes, small enough
// that a sparse text touch pattern stays cheap.
const (
	planeChunkShift = 9
	planeChunkLen   = 1 << planeChunkShift
	planeChunkMask  = planeChunkLen - 1
)

// A planeChunk stores one entry per offset with an inline state byte:
// the emulator's fetch loop hits the same entries millions of times,
// so the hit path is one indexed load and a branch.
type planeChunk struct {
	ents [planeChunkLen]planeEntry
}

// Entry states. Decode can only fail with the two sentinel errors
// (plus the >15-byte length check, which is ErrBadInstruction), so the
// error is folded into the state byte instead of stored as an
// interface.
const (
	planeCold  uint8 = iota
	planeBad         // decoded to ErrBadInstruction
	planeTrunc       // decoded to ErrTruncated
	planeOK          // successful decode stored inline
)

type planeEntry struct {
	inst  Inst
	size  uint8
	state uint8
}

// NewPlane builds a cold decode plane over text. Only the chunk index is
// allocated up front; entry chunks materialize on first decode.
func NewPlane(text []byte) *Plane {
	return &Plane{text: text, chunks: make([]*planeChunk, (len(text)+planeChunkMask)>>planeChunkShift)}
}

// Decode returns the instruction at byte offset off, memoizing the
// result. Offsets outside the slab return ErrTruncated. The returned
// error is always one of the Decode sentinels, never a wrapper, so
// errors.Is and == both work.
func (p *Plane) Decode(off int) (Inst, int, error) {
	if off < 0 || off >= len(p.text) {
		return Inst{}, 0, ErrTruncated
	}
	c := p.chunks[off>>planeChunkShift]
	if c == nil {
		c = &planeChunk{}
		p.chunks[off>>planeChunkShift] = c
	}
	e := &c.ents[off&planeChunkMask]
	switch e.state {
	case planeOK:
		return e.inst, int(e.size), nil
	case planeBad:
		return Inst{}, 0, ErrBadInstruction
	case planeTrunc:
		return Inst{}, 0, ErrTruncated
	}
	in, n, err := Decode(p.text[off:])
	switch {
	case err == nil:
		e.inst, e.size, e.state = in, uint8(n), planeOK
	case err == ErrTruncated:
		e.state = planeTrunc
	default:
		e.state = planeBad
	}
	return in, n, err
}
