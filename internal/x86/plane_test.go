package x86

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/layout"
)

// planeTestText builds a slab mixing real encoded instructions with
// junk, so every plane state (ok, bad, truncated) is exercised.
func planeTestText(t *testing.T) []byte {
	t.Helper()
	var text []byte
	insts := []Inst{
		{Op: ENDBR64},
		{Op: MOV, W: 8, Dst: RAX.Arg(), Src: Imm(42).Arg()},
		{Op: ADD, W: 8, Dst: RAX.Arg(), Src: RBX.Arg()},
		{Op: PUSH, Src: RBP.Arg()},
		{Op: CALL, Src: Rel(0x100).Arg()},
		{Op: JMP, Src: Rel(-5).Arg()},
		{Op: RET},
		{Op: NOP},
	}
	for i := 0; i < 64; i++ {
		b, err := Encode(insts[i%len(insts)])
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		text = append(text, b...)
	}
	// Junk tail: undecodable and truncated offsets.
	text = append(text, 0x06, 0x07, 0x0f, 0x04, 0x48)
	return text
}

// TestPlaneMatchesColdDecode is the decode-plane determinism oracle: at
// every offset the memoized result (first call populates, second call
// hits the cache) must equal a cold Decode of the same bytes — same
// instruction, same length, same sentinel error. It covers the mixed
// test slab and two whole 4 KiB pages, the emulator's slab size: one of
// encoded instructions (every mid-instruction offset included) and one
// of random bytes.
func TestPlaneMatchesColdDecode(t *testing.T) {
	code := planeTestText(t)
	planeEquivalence(t, code)

	page := make([]byte, 0, 4096+len(code))
	for len(page) < 4096 {
		page = append(page, code...)
	}
	planeEquivalence(t, page[:4096])

	junk := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(junk)
	planeEquivalence(t, junk)
}

// planeEquivalence checks every offset of text twice — cold, then
// cached — against a direct Decode of the same bytes: same instruction,
// same length, same sentinel error.
func planeEquivalence(t *testing.T, text []byte) {
	t.Helper()
	p := NewPlane(text)
	for _, name := range []string{"cold", "cached"} {
		for off := range text {
			wantIn, wantN, wantErr := Decode(text[off:])
			in, n, err := p.Decode(off)
			if err != wantErr {
				t.Fatalf("%s off %d: err %v, Decode %v", name, off, err, wantErr)
			}
			if in != wantIn || n != wantN {
				t.Fatalf("%s off %d: got %v (%d bytes), Decode %v (%d bytes)", name, off, in, n, wantIn, wantN)
			}
		}
	}
}

// TestPlaneSlabBound pins the slot bound: on a slab of MaxPlaneText
// NOPs every offset decodes, so the last entry index takes the largest
// slot value, which must not collide with the failure slots; one byte
// more is refused.
func TestPlaneSlabBound(t *testing.T) {
	text := make([]byte, MaxPlaneText)
	for i := range text {
		text[i] = 0x90
	}
	planeEquivalence(t, text)

	defer func() {
		if recover() == nil {
			t.Error("NewPlane accepted a slab longer than MaxPlaneText")
		}
	}()
	NewPlane(make([]byte, MaxPlaneText+1))
}

// TestPlaneOutOfRange checks the slab bounds behave like truncation.
func TestPlaneOutOfRange(t *testing.T) {
	p := NewPlane([]byte{0xc3})
	for _, off := range []int{-1, 1, 1 << 20} {
		if _, _, err := p.Decode(off); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d) err = %v, want ErrTruncated", off, err)
		}
	}
}

// TestPlaneDecodeAllocs gates the hot paths: a cached plane lookup (the
// emulator's per-step fetch) must not allocate, and neither may
// the arithmetic EncodedLen.
func TestPlaneDecodeAllocs(t *testing.T) {
	text := planeTestText(t)
	p := NewPlane(text)
	for off := 0; off < len(text); off++ {
		p.Decode(off)
	}
	if avg := testing.AllocsPerRun(200, func() {
		for off := 0; off < len(text); off++ {
			p.Decode(off)
		}
	}); avg != 0 {
		t.Errorf("cached Plane.Decode allocates %.1f times per sweep, want 0", avg)
	}

	in := Inst{Op: MOV, W: 8, Dst: RAX.Arg(), Src: Imm(1234).Arg()}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := EncodedLen(in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("EncodedLen allocates %.1f times per call, want 0", avg)
	}

	var buf [16]byte
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := EncodeAppend(buf[:0], in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("EncodeAppend into a sized buffer allocates %.1f times per call, want 0", avg)
	}
}

// TestLayout pins the shapes the rewriter and the emulator hold in large
// slabs: an Inst is 48 bytes (its one-byte fields and flags share the
// first word), an operand 16, and a decode-plane entry 56. None of them
// may hold a pointer, so the CFG builder's arena, S' and the decode
// planes are allocated noscan and the garbage collector never walks
// them. A field added in the wrong place costs a word per instruction
// everywhere; a pointer-typed one costs a scan of every slab.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{
		{Inst{}, 48},
		{Arg{}, 16},
		{planeEntry{}, 56},
	} {
		typ := reflect.TypeOf(c.v)
		if got := typ.Size(); got != c.size {
			t.Errorf("%s is %d bytes, want %d", typ, got, c.size)
		}
		if err := layout.PointerFree(typ); err != nil {
			t.Error(err)
		}
	}
}
