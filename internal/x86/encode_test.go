package x86

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// golden encodings cross-checked against GNU as output.
var goldenTests = []struct {
	in   Inst
	want string // hex
	str  string // expected printer output
}{
	{Inst{Op: ENDBR64}, "f30f1efa", "endbr64"},
	{Inst{Op: NOP}, "90", "nop"},
	{Inst{Op: RET}, "c3", "ret"},
	{Inst{Op: SYSCALL}, "0f05", "syscall"},
	{Inst{Op: UD2}, "0f0b", "ud2"},
	{Inst{Op: HLT}, "f4", "hlt"},
	{Inst{Op: INT3}, "cc", "int3"},
	{Inst{Op: CQO, W: 8}, "4899", "cqo"},

	{Inst{Op: PUSH, Src: RBP.Arg()}, "55", "push RBP"},
	{Inst{Op: PUSH, Src: R12.Arg()}, "4154", "push R12"},
	{Inst{Op: PUSH, Src: Imm(0x12345678).Arg()}, "6878563412", "push 0x12345678"},
	{Inst{Op: PUSH, Src: Imm(5).Arg()}, "6a05", "push 0x5"},
	{Inst{Op: POP, Dst: RBP.Arg()}, "5d", "pop RBP"},
	{Inst{Op: POP, Dst: R15.Arg()}, "415f", "pop R15"},

	// 16-bit immediates are two bytes wide, as the decoder reads them.
	{
		Inst{Op: TEST, W: 2, Dst: Mem{Base: RBX, Index: NoReg}.Arg(), Src: Imm(0x1234).Arg()},
		"66f7033412",
		"test WORD PTR [RBX], 0x1234",
	},
	{
		Inst{Op: IMUL, W: 2, Dst: RAX.Arg(), Src: Mem{Base: RBX, Index: NoReg}.Arg(), Imm3: 0x1234, HasImm3: true},
		"6669033412",
		"imul AX, WORD PTR [RBX], 0x1234",
	},

	{Inst{Op: MOV, W: 8, Dst: RAX.Arg(), Src: RBX.Arg()}, "488bc3", "mov RAX, RBX"},
	{Inst{Op: MOV, W: 4, Dst: RAX.Arg(), Src: Imm(7).Arg()}, "b807000000", "mov EAX, 0x7"},
	{Inst{Op: MOV, W: 8, Dst: RAX.Arg(), Src: Imm(7).Arg()}, "48c7c007000000", "mov RAX, 0x7"},
	{
		Inst{Op: MOV, W: 8, Dst: RDX.Arg(), Src: Imm(0x123456789A).Arg()},
		"48ba9a78563412000000",
		"mov RDX, 0x123456789a",
	},
	{
		Inst{Op: MOV, W: 4, Dst: RAX.Arg(), Src: Mem{Base: RSP, Index: NoReg, Disp: 0x4C}.Arg()},
		"8b44244c",
		"mov EAX, DWORD PTR [RSP+0x4c]",
	},
	{
		Inst{Op: MOV, W: 8, Dst: Mem{Base: RBP, Index: NoReg, Disp: -8}.Arg(), Src: RAX.Arg()},
		"488945f8",
		"mov QWORD PTR [RBP-0x8], RAX",
	},
	{
		Inst{Op: MOV, W: 1, Dst: Mem{Base: RDI, Index: NoReg}.Arg(), Src: RSI.Arg()},
		"408837",
		"mov BYTE PTR [RDI], SIL",
	},
	{
		Inst{Op: MOV, W: 8, Dst: Mem{Base: R13, Index: NoReg}.Arg(), Src: RAX.Arg()},
		"49894500",
		"mov QWORD PTR [R13], RAX",
	},

	{
		Inst{Op: MOVSXD, W: 8, SrcW: 4, Dst: RCX.Arg(), Src: Mem{Base: RDX, Index: RCX, Scale: 4}.Arg()},
		"48630c8a",
		"movsxd RCX, DWORD PTR [RDX+RCX*4]",
	},
	{
		Inst{Op: MOVZX, W: 4, SrcW: 1, Dst: RAX.Arg(), Src: Mem{Base: RDI, Index: NoReg}.Arg()},
		"0fb607",
		"movzx EAX, BYTE PTR [RDI]",
	},
	{
		Inst{Op: MOVSX, W: 8, SrcW: 1, Dst: RAX.Arg(), Src: RCX.Arg()},
		"480fbec1",
		"movsx RAX, CL",
	},

	{
		Inst{Op: LEA, W: 8, Dst: RAX.Arg(), Src: Mem{Base: NoReg, Index: NoReg, Disp: 0x10, Rip: true}.Arg()},
		"488d0510000000",
		"lea RAX, [RIP+0x10]",
	},
	{
		Inst{Op: LEA, W: 8, Dst: RBX.Arg(), Src: Mem{Base: NoReg, Index: NoReg, Disp: -0x1e8, Rip: true}.Arg()},
		"488d1d18feffff",
		"lea RBX, [RIP-0x1e8]",
	},
	{
		Inst{Op: LEA, W: 8, Dst: RCX.Arg(), Src: Mem{Base: RAX, Index: RDX, Scale: 8, Disp: 4}.Arg()},
		"488d4cd004",
		"lea RCX, [RAX+RDX*8+0x4]",
	},

	{Inst{Op: ADD, W: 8, Dst: RAX.Arg(), Src: RBX.Arg()}, "4803c3", "add RAX, RBX"},
	{Inst{Op: ADD, W: 8, Dst: RSP.Arg(), Src: Imm(0x20).Arg()}, "4883c420", "add RSP, 0x20"},
	{Inst{Op: SUB, W: 8, Dst: RSP.Arg(), Src: Imm(0x188).Arg()}, "4881ec88010000", "sub RSP, 0x188"},
	{Inst{Op: CMP, W: 4, Dst: RDI.Arg(), Src: Imm(20).Arg()}, "83ff14", "cmp EDI, 0x14"},
	{Inst{Op: XOR, W: 4, Dst: RAX.Arg(), Src: RAX.Arg()}, "33c0", "xor EAX, EAX"},
	{Inst{Op: TEST, W: 8, Dst: RAX.Arg(), Src: RAX.Arg()}, "4885c0", "test RAX, RAX"},
	{Inst{Op: TEST, W: 4, Dst: RDI.Arg(), Src: Imm(1).Arg()}, "f7c701000000", "test EDI, 0x1"},

	{Inst{Op: IMUL, W: 8, Dst: RAX.Arg(), Src: RBX.Arg()}, "480fafc3", "imul RAX, RBX"},
	{
		Inst{Op: IMUL, W: 8, Dst: RAX.Arg(), Src: RAX.Arg(), Imm3: 24, HasImm3: true},
		"486bc018",
		"imul RAX, RAX, 0x18",
	},
	{Inst{Op: IDIV, W: 8, Dst: RBX.Arg()}, "48f7fb", "idiv RBX"},
	{Inst{Op: NEG, W: 8, Dst: RAX.Arg()}, "48f7d8", "neg RAX"},
	{Inst{Op: NOT, W: 4, Dst: RCX.Arg()}, "f7d1", "not ECX"},
	{Inst{Op: SHL, W: 8, Dst: RAX.Arg(), Src: Imm(3).Arg()}, "48c1e003", "shl RAX, 0x3"},
	{Inst{Op: SAR, W: 8, Dst: RAX.Arg(), Src: Imm(1).Arg()}, "48d1f8", "sar RAX, 0x1"},
	{Inst{Op: SHR, W: 8, Dst: RDX.Arg(), Src: RCX.Arg()}, "48d3ea", "shr RDX, RCX"},

	{Inst{Op: JMP, Src: Rel(0x10).Arg()}, "eb10", "jmp .+0x10"},
	{Inst{Op: JMP, Src: Rel(0x1234).Arg()}, "e934120000", "jmp .+0x1234"},
	{Inst{Op: JMP, Src: RCX.Arg(), NoTrack: true}, "3effe1", "notrack jmp RCX"},
	{Inst{Op: JMP, Src: RAX.Arg()}, "ffe0", "jmp RAX"},
	{Inst{Op: JCC, Cond: CondNE, Src: Rel(-2).Arg()}, "75fe", "jne .-0x2"},
	{Inst{Op: JCC, Cond: CondLE, Src: Rel(0x200).Arg()}, "0f8e00020000", "jle .+0x200"},
	{Inst{Op: CALL, Src: Rel(0x56).Arg()}, "e856000000", "call .+0x56"},
	{Inst{Op: CALL, Src: RAX.Arg()}, "ffd0", "call RAX"},
	{
		Inst{Op: CALL, Src: Mem{Base: RBX, Index: RDI, Scale: 8, Disp: 0}.Arg()},
		"ff14fb",
		"call QWORD PTR [RBX+RDI*8]",
	},

	{Inst{Op: SETCC, Cond: CondE, Dst: RAX.Arg(), W: 1}, "0f94c0", "sete AL"},
	{Inst{Op: SETCC, Cond: CondG, Dst: RSI.Arg(), W: 1}, "400f9fc6", "setg SIL"},
	{Inst{Op: CMOVCC, Cond: CondL, W: 8, Dst: RAX.Arg(), Src: RBX.Arg()}, "480f4cc3", "cmovl RAX, RBX"},
}

func TestGoldenEncodings(t *testing.T) {
	for _, tt := range goldenTests {
		got, err := Encode(tt.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", tt.in, err)
			continue
		}
		if hex.EncodeToString(got) != tt.want {
			t.Errorf("Encode(%v) = %s, want %s", tt.in, hex.EncodeToString(got), tt.want)
		}
		if s := tt.in.String(); s != tt.str {
			t.Errorf("String() = %q, want %q", s, tt.str)
		}
	}
}

func TestGoldenDecodings(t *testing.T) {
	for _, tt := range goldenTests {
		raw, err := hex.DecodeString(tt.want)
		if err != nil {
			t.Fatal(err)
		}
		in, n, err := Decode(raw)
		if err != nil {
			t.Errorf("Decode(%s): %v", tt.want, err)
			continue
		}
		if n != len(raw) {
			t.Errorf("Decode(%s): length %d, want %d", tt.want, n, len(raw))
		}
		// The decoded instruction must re-encode to the same bytes.
		re, err := Encode(in)
		if err != nil {
			t.Errorf("re-Encode(%v): %v", in, err)
			continue
		}
		if !bytes.Equal(re, raw) {
			t.Errorf("Decode(%s) = %v re-encodes to %x", tt.want, in, re)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tt := range goldenTests {
		enc, err := Encode(tt.in)
		if err != nil {
			t.Fatal(err)
		}
		dec, n, err := Decode(enc)
		if err != nil {
			t.Errorf("Decode(Encode(%v)): %v", tt.in, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("Decode(Encode(%v)): consumed %d of %d bytes", tt.in, n, len(enc))
		}
		if dec.String() != tt.in.String() {
			t.Errorf("round trip: got %q, want %q", dec.String(), tt.in.String())
		}
	}
}

func TestNopBytes(t *testing.T) {
	for n := 1; n <= 64; n++ {
		pad := NopBytes(n)
		if len(pad) != n {
			t.Fatalf("NopBytes(%d) returned %d bytes", n, len(pad))
		}
		// Every padding sequence must decode to NOPs.
		pos := 0
		for pos < n {
			in, k, err := Decode(pad[pos:])
			if err != nil {
				t.Fatalf("NopBytes(%d): decode at %d: %v", n, pos, err)
			}
			if in.Op != NOP {
				t.Fatalf("NopBytes(%d): decoded %v at %d", n, in, pos)
			}
			pos += k
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	bad := [][]byte{
		{0x06},             // undefined in 64-bit mode
		{0xF1},             // int1: unsupported
		{0x0F, 0xFF},       // UD0-adjacent
		{0xFF, 0xF0},       // group 5 digit 6 (push r/m): unsupported
		{0xD8, 0x00},       // x87: unsupported
		{0xF3, 0x0F, 0x1E}, // truncated endbr
	}
	for _, b := range bad {
		if in, _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x) = %v, want error", b, in)
		}
	}
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
}

// TestDecode16BitStackOps: without REX.W, a 0x66 prefix turns push and
// pop into 16-bit stack operations (and push imm32 into a 4-byte push
// imm16). The subset has no such instructions, so Decode rejects them
// rather than widening them to 64 bits; with REX.W the prefix is moot.
func TestDecode16BitStackOps(t *testing.T) {
	for _, b := range [][]byte{
		{0x66, 0x50},             // push AX
		{0x66, 0x5F},             // pop DI
		{0x66, 0x41, 0x54},       // push R12W
		{0x66, 0x6A, 0x01},       // push imm8, 16-bit
		{0x66, 0x68, 0x34, 0x12}, // push imm16
	} {
		if in, n, err := Decode(b); err != ErrBadInstruction {
			t.Errorf("Decode(%x) = %v, %d, %v; want ErrBadInstruction", b, in, n, err)
		}
	}
	in, n, err := Decode([]byte{0x66, 0x48, 0x50})
	if err != nil || n != 3 || in.Op != PUSH || in.Src != RAX.Arg() {
		t.Errorf("Decode(664850) = %v, %d, %v; want push RAX, 3 bytes", in, n, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, tt := range goldenTests {
		raw, _ := hex.DecodeString(tt.want)
		for cut := 0; cut < len(raw); cut++ {
			if _, _, err := Decode(raw[:cut]); err == nil {
				t.Errorf("Decode(%x[:%d]) succeeded on truncated input", raw, cut)
			}
		}
	}
}

func TestBranchTarget(t *testing.T) {
	in := Inst{Op: CALL, Src: Rel(0x56).Arg()}
	enc, _ := Encode(in)
	tgt, ok := in.BranchTarget(0x1000, len(enc))
	if !ok || tgt != 0x1000+5+0x56 {
		t.Errorf("BranchTarget = %#x, %v", tgt, ok)
	}
	if _, ok := (Inst{Op: JMP, Src: RAX.Arg()}).BranchTarget(0, 2); ok {
		t.Error("indirect jmp reported a branch target")
	}
}

func TestRipTarget(t *testing.T) {
	in := Inst{Op: LEA, W: 8, Dst: RAX.Arg(), Src: Mem{Base: NoReg, Index: NoReg, Disp: -0x100, Rip: true}.Arg()}
	enc, _ := Encode(in)
	tgt, ok := in.RipTarget(0x2000, len(enc))
	if !ok || tgt != 0x2000+uint64(len(enc))-0x100 {
		t.Errorf("RipTarget = %#x, %v", tgt, ok)
	}
}

func TestMemString(t *testing.T) {
	tests := []struct {
		m    Mem
		want string
	}{
		{Mem{Base: NoReg, Index: NoReg, Rip: true, Disp: 0x42}, "[RIP+0x42]"},
		{Mem{Base: RAX, Index: NoReg}, "[RAX]"},
		{Mem{Base: NoReg, Index: RCX, Scale: 4, Disp: 8}, "[RCX*4+0x8]"},
		{Mem{Base: NoReg, Index: NoReg, Disp: 0x1000}, "[0x1000]"},
		{Mem{Base: RBP, Index: NoReg, Disp: -16}, "[RBP-0x10]"},
	}
	for _, tt := range tests {
		if got := tt.m.argString(); got != tt.want {
			t.Errorf("Mem string = %q, want %q", got, tt.want)
		}
	}
}

func TestCondNegate(t *testing.T) {
	pairs := [][2]Cond{{CondE, CondNE}, {CondL, CondGE}, {CondB, CondAE}, {CondO, CondNO}}
	for _, p := range pairs {
		if p[0].Negate() != p[1] || p[1].Negate() != p[0] {
			t.Errorf("Negate(%v/%v) broken", p[0], p[1])
		}
	}
}

func TestCondEval(t *testing.T) {
	f := Flags{ZF: true, SF: true, OF: false}
	cases := map[Cond]bool{
		CondE: true, CondNE: false,
		CondL: true, CondGE: false, CondLE: true, CondG: false,
		CondB: false, CondAE: true, CondBE: true, CondA: false,
		CondS: true, CondNS: false,
	}
	for c, want := range cases {
		if got := c.Eval(f); got != want {
			t.Errorf("Cond %v under %+v = %v, want %v", c, f, got, want)
		}
	}
	// Every condition and its negation must disagree under any flags.
	for _, fl := range []Flags{{}, {CF: true}, {ZF: true}, {SF: true}, {OF: true}, {SF: true, OF: true}, {CF: true, ZF: true}} {
		for c := Cond(0); c < numConds; c++ {
			if c.Eval(fl) == c.Negate().Eval(fl) {
				t.Errorf("Cond %v and %v agree under %+v", c, c.Negate(), fl)
			}
		}
	}
}

func TestDecodeAll(t *testing.T) {
	var buf []byte
	var want []string
	seq := []Inst{
		{Op: ENDBR64},
		{Op: PUSH, Src: RBP.Arg()},
		{Op: MOV, W: 8, Dst: RBP.Arg(), Src: RSP.Arg()},
		{Op: XOR, W: 4, Dst: RAX.Arg(), Src: RAX.Arg()},
		{Op: POP, Dst: RBP.Arg()},
		{Op: RET},
	}
	for _, in := range seq {
		b, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		want = append(want, in.String())
	}
	insts, offs, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != len(seq) || len(offs) != len(seq) {
		t.Fatalf("DecodeAll returned %d instructions, want %d", len(insts), len(seq))
	}
	for i, in := range insts {
		if in.String() != want[i] {
			t.Errorf("inst %d = %q, want %q", i, in.String(), want[i])
		}
	}
}

func TestRegNames(t *testing.T) {
	if RAX.Name(8) != "RAX" || RAX.Name(4) != "EAX" || RAX.Name(1) != "AL" {
		t.Error("RAX names wrong")
	}
	if R9.Name(8) != "R9" || R9.Name(4) != "R9D" || R9.Name(1) != "R9B" {
		t.Error("R9 names wrong")
	}
	if RSI.Name(1) != "SIL" || RSI.Name(2) != "SI" {
		t.Error("RSI names wrong")
	}
	if !strings.Contains(NoReg.Name(8), "noreg") {
		t.Error("NoReg name wrong")
	}
}
