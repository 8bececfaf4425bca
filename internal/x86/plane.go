package x86

// Plane is a decode plane over one text slab: a table indexed by byte
// offset that memoizes the result of Decode at each offset, making every
// decode after the first two indexed loads and a struct copy. The
// emulator keeps one per executable page, where the same instructions
// are fetched millions of times.
//
// A Plane is not safe for concurrent use: each machine owns its planes.
// Storage is split in two: a slot per offset records the offset's
// state, and the instructions themselves live in a dense entry slice
// that grows only for offsets that decode. A run touches a small part
// of each page (instruction starts, not every byte), so the plane's
// size follows the code the program executes, not the slab length.
type Plane struct {
	text  []byte
	slots []planeSlot
	ents  []planeEntry
}

// A planeSlot is one offset's state. Decode can only fail with the two
// sentinel errors (plus the >15-byte length check, which is
// ErrBadInstruction), so each failure gets a reserved slot value
// instead of a stored error; any other nonzero value is 1 + the index
// of the offset's entry in Plane.ents.
type planeSlot uint16

const (
	slotCold  planeSlot = 0
	slotBad   planeSlot = ^planeSlot(0)     // decoded to ErrBadInstruction
	slotTrunc planeSlot = ^planeSlot(0) - 1 // decoded to ErrTruncated
)

// MaxPlaneText is the longest slab a Plane covers. Each successful
// decode takes one entry and each offset decodes at most once, so a
// slab of at most MaxPlaneText bytes can never run out of slot values.
// The emulator's slabs are single pages, far below the bound.
const MaxPlaneText = int(slotTrunc) - 1

type planeEntry struct {
	inst Inst
	size uint8
}

// NewPlane builds a cold decode plane over text, which must be at most
// MaxPlaneText bytes long (a longer slab panics). Only the slot array
// is allocated up front; entries are appended as offsets decode.
func NewPlane(text []byte) *Plane {
	if len(text) > MaxPlaneText {
		panic("x86: NewPlane slab longer than MaxPlaneText")
	}
	return &Plane{text: text, slots: make([]planeSlot, len(text))}
}

// Decode returns the instruction at byte offset off, memoizing the
// result. Offsets outside the slab return ErrTruncated. The returned
// error is always one of the Decode sentinels, never a wrapper, so
// errors.Is and == both work.
func (p *Plane) Decode(off int) (Inst, int, error) {
	if off < 0 || off >= len(p.text) {
		return Inst{}, 0, ErrTruncated
	}
	switch s := p.slots[off]; s {
	case slotCold:
	case slotBad:
		return Inst{}, 0, ErrBadInstruction
	case slotTrunc:
		return Inst{}, 0, ErrTruncated
	default:
		e := &p.ents[s-1]
		return e.inst, int(e.size), nil
	}
	in, n, err := Decode(p.text[off:])
	switch {
	case err == nil:
		p.ents = append(p.ents, planeEntry{inst: in, size: uint8(n)})
		p.slots[off] = planeSlot(len(p.ents))
	case err == ErrTruncated:
		p.slots[off] = slotTrunc
	default:
		p.slots[off] = slotBad
	}
	return in, n, err
}
