package x86

import (
	"testing"
)

// FuzzDecode throws arbitrary bytes at the instruction decoder. Decode
// may reject, but it must never panic, and every success must consume a
// plausible x86-64 length: 1..15 bytes, within the input. (The superset
// CFG decodes at every byte offset of .text, so the decoder sees every
// possible garbage suffix in normal operation.) Seed corpus:
// testdata/fuzz/FuzzDecode (regenerate with scripts/gencorpus).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xC3})                               // ret
	f.Add([]byte{0xF3, 0x0F, 0x1E, 0xFA})             // endbr64
	f.Add([]byte{0x48, 0x8B, 0x04, 0x25, 1, 2, 3, 4}) // mov rax, [disp32]
	f.Add([]byte{0x48, 0x8D, 0x05, 1, 2, 3, 4})       // lea rax, [rip+d]
	f.Add([]byte{0xE9, 0x00, 0x00, 0x00})             // truncated jmp rel32
	f.Add([]byte{0x66, 0x48})                         // bare prefixes
	f.Fuzz(func(t *testing.T, data []byte) {
		_, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) || n > 15 {
			t.Fatalf("Decode(%x) accepted with length %d", data, n)
		}
	})
}

// FuzzRoundTrip is the codec-level guard for the operand model: every
// instruction Decode accepts and EncodeAppend can encode must re-decode
// to the same Inst and consume exactly the encoded bytes. (The bytes
// themselves may differ: the encoder picks the shortest form.)
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0x66, 0xF7, 0x03, 0x34, 0x12})             // test WORD PTR [RBX], 0x1234
	f.Add([]byte{0x66, 0x69, 0x03, 0x34, 0x12})             // imul AX, WORD PTR [RBX], 0x1234
	f.Add([]byte{0x48, 0x8D, 0x05, 1, 2, 3, 4})             // lea rax, [rip+d]
	f.Add([]byte{0x64, 0x48, 0x8B, 0x04, 0x25, 0, 0, 0, 0}) // mov rax, fs:[0]
	f.Add([]byte{0x3E, 0xFF, 0xE0})                         // notrack jmp rax
	f.Add([]byte{0x0F, 0x84, 0x10, 0, 0, 0})                // je rel32
	f.Fuzz(func(t *testing.T, data []byte) {
		in, _, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := EncodeAppend(nil, in)
		if err != nil {
			return
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%x) = %v; re-encoded as %x, which does not decode: %v", data, in, enc, err)
		}
		if n != len(enc) {
			t.Fatalf("Decode(%x) = %v; re-encoded as %x, which decodes %d of %d bytes", data, in, enc, n, len(enc))
		}
		if got != in {
			t.Fatalf("Decode(%x) = %+v; re-encoded as %x, which decodes to %+v", data, in, enc, got)
		}
	})
}
