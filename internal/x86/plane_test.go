package x86

import (
	"errors"
	"testing"
)

// planeTestText builds a slab mixing real encoded instructions with
// junk, so every plane state (ok, bad, truncated) is exercised.
func planeTestText(t *testing.T) []byte {
	t.Helper()
	var text []byte
	insts := []Inst{
		{Op: ENDBR64},
		{Op: MOV, W: 8, Dst: RAX, Src: Imm(42)},
		{Op: ADD, W: 8, Dst: RAX, Src: RBX},
		{Op: PUSH, Src: RBP},
		{Op: CALL, Src: Rel(0x100)},
		{Op: JMP, Src: Rel(-5)},
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
// instruction, same length, same sentinel error.
func TestPlaneMatchesColdDecode(t *testing.T) {
	text := planeTestText(t)
	p := NewPlane(text)
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < len(text); off++ {
			wantIn, wantN, wantErr := Decode(text[off:])
			in, n, err := p.Decode(off)
			if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
				t.Fatalf("pass %d off %d: err %v, cold decode %v", pass, off, err, wantErr)
			}
			if err == nil && (n != wantN || in != wantIn) {
				t.Fatalf("pass %d off %d: got %#v (%d bytes), cold decode %#v (%d bytes)",
					pass, off, in, n, wantIn, wantN)
			}
		}
	}
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

	in := Inst{Op: MOV, W: 8, Dst: RAX, Src: Imm(1234)}
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
