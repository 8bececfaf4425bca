package x86

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randReg returns a random general-purpose register, optionally excluding
// RSP (which cannot be a SIB index).
func randReg(r *rand.Rand, excludeRSP bool) Reg {
	for {
		reg := Reg(r.Intn(16))
		if excludeRSP && reg == RSP {
			continue
		}
		return reg
	}
}

func randMem(r *rand.Rand) Mem {
	m := Mem{Base: NoReg, Index: NoReg, Scale: 1}
	switch r.Intn(5) {
	case 0: // RIP-relative
		m.Rip = true
		m.Disp = int32(r.Int63())
	case 1: // [base+disp]
		m.Base = randReg(r, false)
		m.Disp = randDisp(r)
	case 2: // [base+index*scale+disp]
		m.Base = randReg(r, false)
		m.Index = randReg(r, true)
		m.Scale = 1 << r.Intn(4)
		m.Disp = randDisp(r)
	case 3: // [index*scale+disp32]
		m.Index = randReg(r, true)
		m.Scale = 1 << r.Intn(4)
		m.Disp = int32(r.Int63())
	case 4: // [disp32] absolute
		m.Disp = int32(r.Int63())
	}
	return m
}

func randDisp(r *rand.Rand) int32 {
	switch r.Intn(3) {
	case 0:
		return 0
	case 1:
		return int32(int8(r.Int63()))
	default:
		return int32(r.Int63())
	}
}

func randWidth(r *rand.Rand) uint8 {
	return []uint8{1, 4, 8}[r.Intn(3)]
}

// randRM returns either a register or memory operand.
func randRM(r *rand.Rand) Arg {
	if r.Intn(2) == 0 {
		return randReg(r, false).Arg()
	}
	return randMem(r).Arg()
}

// randInst generates a random valid instruction of the supported subset.
func randInst(r *rand.Rand) Inst {
	switch r.Intn(16) {
	case 0:
		return Inst{Op: MOV, W: randWidth(r), Dst: randReg(r, false).Arg(), Src: randRM(r)}
	case 1:
		return Inst{Op: MOV, W: randWidth(r), Dst: randMem(r).Arg(), Src: randReg(r, false).Arg()}
	case 2:
		w := randWidth(r)
		var v int64
		switch w {
		case 1:
			v = int64(int8(r.Int63()))
		case 4:
			v = int64(int32(r.Int63()))
		default:
			v = r.Int63() - r.Int63()
		}
		return Inst{Op: MOV, W: w, Dst: randReg(r, false).Arg(), Src: Imm(v).Arg()}
	case 3:
		ops := []Op{ADD, OR, AND, SUB, XOR, CMP}
		return Inst{Op: ops[r.Intn(len(ops))], W: randWidth(r), Dst: randReg(r, false).Arg(), Src: randRM(r)}
	case 4:
		ops := []Op{ADD, OR, AND, SUB, XOR, CMP}
		w := randWidth(r)
		var v int64
		if w == 1 {
			v = int64(int8(r.Int63()))
		} else {
			v = int64(int32(r.Int63()))
		}
		return Inst{Op: ops[r.Intn(len(ops))], W: w, Dst: randRM(r), Src: Imm(v).Arg()}
	case 5:
		return Inst{Op: LEA, W: 8, Dst: randReg(r, false).Arg(), Src: randMem(r).Arg()}
	case 6:
		if r.Intn(2) == 0 {
			return Inst{Op: PUSH, Src: randReg(r, false).Arg()}
		}
		return Inst{Op: POP, Dst: randReg(r, false).Arg()}
	case 7:
		return Inst{Op: JCC, Cond: Cond(r.Intn(16)), Src: Rel(int32(r.Int63())).Arg()}
	case 8:
		if r.Intn(2) == 0 {
			return Inst{Op: JMP, Src: Rel(int32(r.Int63())).Arg()}
		}
		return Inst{Op: JMP, Src: randReg(r, false).Arg(), NoTrack: r.Intn(2) == 0}
	case 9:
		if r.Intn(2) == 0 {
			return Inst{Op: CALL, Src: Rel(int32(r.Int63())).Arg()}
		}
		return Inst{Op: CALL, Src: randRM(r)}
	case 10:
		return Inst{Op: MOVSXD, W: 8, SrcW: 4, Dst: randReg(r, false).Arg(), Src: randRM(r)}
	case 11:
		ops := []Op{MOVZX, MOVSX}
		return Inst{
			Op: ops[r.Intn(2)], W: []uint8{4, 8}[r.Intn(2)], SrcW: uint8(1 + r.Intn(2)),
			Dst: randReg(r, false).Arg(), Src: randRM(r),
		}
	case 12:
		ops := []Op{SHL, SHR, SAR}
		if r.Intn(2) == 0 {
			return Inst{Op: ops[r.Intn(3)], W: randWidth(r), Dst: randRM(r), Src: Imm(int64(1 + r.Intn(63))).Arg()}
		}
		return Inst{Op: ops[r.Intn(3)], W: randWidth(r), Dst: randRM(r), Src: RCX.Arg()}
	case 13:
		ops := []Op{NEG, NOT, IDIV}
		return Inst{Op: ops[r.Intn(3)], W: randWidth(r), Dst: randRM(r)}
	case 14:
		if r.Intn(2) == 0 {
			return Inst{Op: IMUL, W: []uint8{4, 8}[r.Intn(2)], Dst: randReg(r, false).Arg(), Src: randRM(r)}
		}
		return Inst{
			Op: IMUL, W: []uint8{4, 8}[r.Intn(2)], Dst: randReg(r, false).Arg(), Src: randRM(r),
			Imm3: int64(int32(r.Int63())), HasImm3: true,
		}
	default:
		simple := []Inst{
			{Op: ENDBR64}, {Op: NOP}, {Op: RET}, {Op: SYSCALL}, {Op: UD2},
			{Op: HLT}, {Op: INT3}, {Op: CQO, W: 8},
			{Op: SETCC, Cond: Cond(r.Intn(16)), Dst: randRM(r), W: 1},
			{Op: CMOVCC, Cond: Cond(r.Intn(16)), W: 8, Dst: randReg(r, false).Arg(), Src: randRM(r)},
			{Op: TEST, W: randWidth(r), Dst: randRM(r), Src: randReg(r, false).Arg()},
		}
		return simple[r.Intn(len(simple))]
	}
}

// TestQuickRoundTrip is the core ISA invariant: for any valid instruction,
// decode(encode(i)) yields an instruction that re-encodes to identical
// bytes and prints identically.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randInst(r)
		enc, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		dec, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(% x) of %v: %v", enc, in, err)
		}
		if n != len(enc) {
			t.Fatalf("Decode(%v): consumed %d of %d", in, n, len(enc))
		}
		re, err := Encode(dec)
		if err != nil {
			t.Fatalf("re-Encode(%v): %v", dec, err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("%v: encode=% x but re-encode=% x (decoded %v)", in, enc, re, dec)
		}
		if dec.String() != in.String() {
			t.Fatalf("print mismatch: %q vs %q", in.String(), dec.String())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeRandomBytes feeds random bytes to the decoder; it must
// never panic and must never consume more than 15 bytes.
func TestQuickDecodeRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		buf := make([]byte, r.Intn(18))
		r.Read(buf)
		in, n, err := Decode(buf)
		if err != nil {
			return true
		}
		if n <= 0 || n > 15 || n > len(buf) {
			t.Fatalf("Decode(% x) = %v with bad length %d", buf, in, n)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEncodedLen checks EncodedLen agrees with Encode.
func TestQuickEncodedLen(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		in := randInst(r)
		enc, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		n, err := EncodedLen(in)
		if err != nil || n != len(enc) {
			t.Fatalf("EncodedLen(%v) = %d, %v; want %d", in, n, err, len(enc))
		}
		if n > 15 {
			t.Fatalf("%v encodes to %d bytes (max 15)", in, n)
		}
	}
}
