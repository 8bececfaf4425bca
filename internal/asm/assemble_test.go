package asm

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"repro/internal/layout"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/x86"
)

func mustAssemble(t *testing.T, p *Program, base uint64) *Result {
	t.Helper()
	res, err := Assemble(p, base)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return res
}

func TestAssembleSimpleFunction(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.L("f")
	text.I(x86.Inst{Op: x86.ENDBR64})
	text.I(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0x1000)
	if got := symAddr(res, "f"); got != 0x1000 {
		t.Errorf("f = %#x, want 0x1000", got)
	}
	sec := res.SectionData(".text")
	if sec == nil || sec.Addr != 0x1000 {
		t.Fatalf("section placement wrong: %+v", sec)
	}
	want := []byte{0xF3, 0x0F, 0x1E, 0xFA, 0x33, 0xC0, 0xC3}
	if !bytes.Equal(sec.Data, want) {
		t.Errorf("data = %x, want %x", sec.Data, want)
	}
}

func TestAssembleBranchResolution(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.L("start")
	text.IS(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, "end", 0)
	text.I(x86.Inst{Op: x86.HLT})
	text.L("end")
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0)
	sec := res.SectionData(".text")
	// jmp should be the 2-byte rel8 form skipping the 1-byte hlt.
	want := []byte{0xEB, 0x01, 0xF4, 0xC3}
	if !bytes.Equal(sec.Data, want) {
		t.Errorf("data = %x, want %x", sec.Data, want)
	}
}

func TestAssembleBranchRelaxation(t *testing.T) {
	// A branch over >127 bytes must be promoted to rel32.
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.IS(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, "far", 0)
	text.Raw(bytes.Repeat([]byte{0x90}, 200))
	text.L("far")
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0)
	sec := res.SectionData(".text")
	if sec.Data[0] != 0x0F || sec.Data[1] != 0x84 {
		t.Fatalf("expected rel32 jcc, got % x", sec.Data[:6])
	}
	rel := int32(binary.LittleEndian.Uint32(sec.Data[2:6]))
	if got := 6 + int(rel); got != 206 {
		t.Errorf("branch resolves to %d, want 206", got)
	}
}

func TestAssembleBackwardBranch(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.L("loop")
	text.I(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(1).Arg()})
	text.IS(x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()}, "loop", 0)
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0x400000)
	sec := res.SectionData(".text")
	// sub rax,1 = 48 83 E8 01 (4 bytes); jne loop = 75 FA (-6).
	want := []byte{0x48, 0x83, 0xE8, 0x01, 0x75, 0xFA, 0xC3}
	if !bytes.Equal(sec.Data, want) {
		t.Errorf("data = %x, want %x", sec.Data, want)
	}
}

func TestAssembleRipRelativeData(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.IS(x86.Inst{
		Op: x86.LEA, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(),
	}, "var", 0)
	text.I(x86.Inst{Op: x86.RET})

	data := p.Section(".data", Alloc|Write)
	data.L("var")
	data.D8(0x1122334455667788)

	res := mustAssemble(t, &p, 0x1000)
	sec := res.SectionData(".text")
	varAddr := symAddr(res, "var")
	disp := int32(binary.LittleEndian.Uint32(sec.Data[3:7]))
	if got := uint64(int64(0x1000+7) + int64(disp)); got != varAddr {
		t.Errorf("lea resolves to %#x, want %#x", got, varAddr)
	}
}

func TestAssembleQuadReloc(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.L("f")
	text.I(x86.Inst{Op: x86.RET})
	data := p.Section(".data.rel.ro", Alloc|Write)
	data.L("tbl")
	data.Q("f", 0)
	data.Q("f", 42)

	res := mustAssemble(t, &p, 0x2000)
	if len(res.Relocs) != 2 {
		t.Fatalf("got %d relocs, want 2", len(res.Relocs))
	}
	f := symAddr(res, "f")
	tbl := symAddr(res, "tbl")
	if res.Relocs[0].Offset != tbl || res.Relocs[0].Addend != f {
		t.Errorf("reloc 0 = %+v, want offset %#x addend %#x", res.Relocs[0], tbl, f)
	}
	if res.Relocs[1].Addend != f+42 {
		t.Errorf("reloc 1 addend = %#x, want %#x", res.Relocs[1].Addend, f+42)
	}
	sec := res.SectionData(".data.rel.ro")
	if got := binary.LittleEndian.Uint64(sec.Data[0:8]); got != f {
		t.Errorf("stored value = %#x, want %#x", got, f)
	}
}

func TestAssembleLongDiff(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.L("a")
	text.Raw(bytes.Repeat([]byte{0x90}, 0x30))
	text.L("b")
	text.I(x86.Inst{Op: x86.RET})
	ro := p.Section(".rodata", Alloc)
	ro.L("jt")
	ro.Diff("b", "jt", 0)
	ro.Diff("a", "jt", 0)

	res := mustAssemble(t, &p, 0)
	sec := res.SectionData(".rodata")
	jt := symAddr(res, "jt")
	e0 := int32(binary.LittleEndian.Uint32(sec.Data[0:4]))
	e1 := int32(binary.LittleEndian.Uint32(sec.Data[4:8]))
	if uint64(int64(jt)+int64(e0)) != symAddr(res, "b") {
		t.Errorf("entry 0 resolves to %#x, want b=%#x", int64(jt)+int64(e0), symAddr(res, "b"))
	}
	if uint64(int64(jt)+int64(e1)) != symAddr(res, "a") {
		t.Errorf("entry 1 resolves to %#x, want a=%#x", int64(jt)+int64(e1), symAddr(res, "a"))
	}
	if e1 >= 0 {
		t.Errorf("entry 1 should be negative (backward), got %d", e1)
	}
}

func TestAssembleSetDirective(t *testing.T) {
	var p Program
	p.Sets = append(p.Sets, Set{Name: "L8000", Addr: 0x8000})
	text := p.Section(".text", Alloc|Exec)
	text.IS(x86.Inst{
		Op: x86.LEA, W: 8, Dst: x86.RCX.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(),
	}, "L8000", 0)
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0x1000)
	sec := res.SectionData(".text")
	disp := int32(binary.LittleEndian.Uint32(sec.Data[3:7]))
	if got := uint64(int64(0x1000+7) + int64(disp)); got != 0x8000 {
		t.Errorf("lea resolves to %#x, want 0x8000", got)
	}
}

func TestAssembleFixedSectionAddress(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.I(x86.Inst{Op: x86.RET})
	ro := p.Section(".rodata", Alloc)
	ro.Addr = 0x20000
	ro.HasAddr = true
	ro.L("x")
	ro.D8(7)

	res := mustAssemble(t, &p, 0x1000)
	if got := symAddr(res, "x"); got != 0x20000 {
		t.Errorf("x = %#x, want 0x20000", got)
	}

	// Overlapping fixed address must fail.
	var bad Program
	t1 := bad.Section(".a", Alloc)
	t1.Skip(0x100)
	t2 := bad.Section(".b", Alloc)
	t2.Addr = 0x10
	t2.HasAddr = true
	if _, err := Assemble(&bad, 0x1000); err == nil {
		t.Error("overlapping fixed section did not fail")
	}
}

func TestAssembleAlignment(t *testing.T) {
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.I(x86.Inst{Op: x86.RET})
	text.Align2(16)
	text.L("f2")
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0x1000)
	if got := symAddr(res, "f2"); got != 0x1010 {
		t.Errorf("f2 = %#x, want 0x1010", got)
	}
	// Padding in exec sections must be decodable NOPs.
	sec := res.SectionData(".text")
	pos := 1
	for pos < 16 {
		in, n, err := x86.Decode(sec.Data[pos:])
		if err != nil || in.Op != x86.NOP {
			t.Fatalf("padding at %d not a NOP: %v %v", pos, in, err)
		}
		pos += n
	}
}

func TestAssembleNobits(t *testing.T) {
	var p Program
	bss := p.Section(".bss", Alloc|Write|Nobits)
	bss.L("buf")
	bss.Skip(4096)
	res := mustAssemble(t, &p, 0x5000)
	sec := res.SectionData(".bss")
	if sec.Data != nil || sec.Size != 4096 {
		t.Errorf("bss: data=%v size=%d", sec.Data != nil, sec.Size)
	}

	var bad Program
	b2 := bad.Section(".bss", Alloc|Write|Nobits)
	b2.D8(1)
	if _, err := Assemble(&bad, 0); err == nil {
		t.Error("data item in nobits section did not fail")
	}
}

func TestAssembleErrors(t *testing.T) {
	// Undefined symbol.
	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.IS(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, "nowhere", 0)
	if _, err := Assemble(&p, 0); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("undefined symbol: err = %v", err)
	}

	// Duplicate label.
	var p2 Program
	t2 := p2.Section(".text", Alloc|Exec)
	t2.L("dup")
	t2.L("dup")
	if _, err := Assemble(&p2, 0); err == nil || !strings.Contains(err.Error(), "dup") {
		t.Errorf("duplicate label: err = %v", err)
	}

	// Symbolic operand on an instruction with no relative operand.
	var p3 Program
	t3 := p3.Section(".text", Alloc|Exec)
	t3.L("x")
	t3.IS(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.RBX.Arg()}, "x", 0)
	if _, err := Assemble(&p3, 0); err == nil {
		t.Error("symbolic operand on mov reg,reg did not fail")
	}
}

func TestAssembleManyBranchesConverge(t *testing.T) {
	// A pathological chain of branches interleaved with alignment; the
	// relaxation loop must converge and produce correct targets.
	var p Program
	text := p.Section(".text", Alloc|Exec)
	const n = 50
	for i := 0; i < n; i++ {
		text.L(lbl(i))
		text.IS(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, lbl(i+1), 0)
		if i%3 == 0 {
			text.Align2(8)
		}
		if i%7 == 0 {
			text.Raw(bytes.Repeat([]byte{0x90}, 100))
		}
	}
	text.L(lbl(n))
	text.I(x86.Inst{Op: x86.RET})

	res := mustAssemble(t, &p, 0x1000)
	sec := res.SectionData(".text")

	// Follow the branch chain by decoding and verify we land on RET.
	addr := symAddr(res, lbl(0))
	for hops := 0; hops < n+1; hops++ {
		off := addr - 0x1000
		in, size, err := x86.Decode(sec.Data[off:])
		if err != nil {
			t.Fatalf("decode at %#x: %v", addr, err)
		}
		if in.Op == x86.RET {
			return
		}
		if in.Op != x86.JMP {
			t.Fatalf("unexpected %v at %#x", in, addr)
		}
		tgt, ok := in.BranchTarget(addr, size)
		if !ok {
			t.Fatalf("no branch target at %#x", addr)
		}
		addr = tgt
	}
	t.Fatal("branch chain did not terminate at RET")
}

func lbl(i int) string { return "L" + string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func TestPrint(t *testing.T) {
	var p Program
	p.Sets = append(p.Sets, Set{Name: "L8000", Addr: 0x8000})
	text := p.Section(".text", Alloc|Exec)
	text.L("fun_1000")
	text.I(x86.Inst{Op: x86.ENDBR64})
	text.IS(x86.Inst{
		Op: x86.LEA, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(),
	}, "fun_1000", 0)
	text.IS(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, "fun_1000", 0)
	ro := p.Section(".rodata", Alloc)
	ro.L("Ljt_8000")
	ro.Diff("Lcode_2100", "Ljt_8000", 0)

	out := Print(&p)
	for _, want := range []string{
		".set L8000, 0x8000",
		".section .text,\"ax\"",
		"fun_1000:",
		"\tendbr64",
		"lea RAX, [RIP+fun_1000]",
		"jmp fun_1000",
		".long Lcode_2100 - Ljt_8000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestItemString(t *testing.T) {
	syms := NewSymtab(0)
	v, a, b, x := syms.Intern("v"), syms.Intern("a"), syms.Intern("b"), syms.Intern("x")
	tests := []struct {
		it   Item
		want string
	}{
		{Quad{Sym: v, Add: 0x42}, "\t.quad v + 0x42"},
		{Quad{Sym: v, Add: -2}, "\t.quad v - 0x2"},
		{QuadLit(0x10), "\t.quad 0x10"},
		{LongDiff{Plus: a, Minus: b, Add: 4}, "\t.long a - b + 4"},
		{AlignTo{N: 16}, "\t.align 16"},
		{Space{N: 8}, "\t.skip 8"},
		{Label{Sym: x}, "x:"},
		{&Ins{Inst: x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RAX.Arg(),
			Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true, Disp: 4}.Arg()},
			Target: v, Addend: -8}, "\tlea RAX, [RIP+v-0x8]"},
		{&Ins{Inst: x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()},
			Target: v, Addend: 2}, "\tje v + 0x2"},
	}
	for _, tt := range tests {
		if got := syms.ItemString(tt.it); got != tt.want {
			t.Errorf("ItemString(%v) = %q, want %q", tt.it, got, tt.want)
		}
	}
}

// TestDispDiffString checks that a symbol-difference displacement (the
// S7 composite operand of Figs. 1–2) shows in listings and in the
// assembler's own error messages, not just the numeric displacement.
func TestDispDiffString(t *testing.T) {
	mov := x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.R9, Index: x86.NoReg, Disp: 0x10}.Arg()}
	const want = "mov RAX, QWORD PTR [R9+0x10+(var-anchor)]"

	var p Program
	text := p.Section(".text", Alloc|Exec)
	text.IDiff(mov, "var", "anchor")
	if got := p.Syms.ItemString(text.Items[0]); got != "\t"+want {
		t.Errorf("ItemString = %q, want %q", got, "\t"+want)
	}
	if out := Print(&p); !strings.Contains(out, want) {
		t.Errorf("Print output missing %q:\n%s", want, out)
	}

	// Neither symbol is defined: the error names the item as listed.
	_, err := Assemble(&p, 0)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("undefined difference symbol: err = %v, want it to contain %q", err, want)
	}
}

// TestLayout pins Ins at 64 bytes with no pointers: the rewriter's S'
// embeds one per entry, and symbols are table IDs, not names.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Ins{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Ins{}) = %d, want 64", got)
	}
	if err := layout.PointerFree(reflect.TypeOf(Ins{})); err != nil {
		t.Error(err)
	}
}

// symAddr returns a defined symbol's address, or 0.
func symAddr(res *Result, name string) uint64 {
	v, _ := res.Symbol(name)
	return v
}
