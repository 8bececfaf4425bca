package cfg

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/elfx"
	"repro/internal/x86"
)

// textFile wraps code in a one-section file whose entry is the first
// byte, the smallest input Build accepts.
func textFile(code []byte) *elfx.File {
	const base = 0x1000
	return &elfx.File{
		Entry: base,
		Sections: []*elfx.Section{{
			Name: ".text", Type: elfx.SHTProgbits, Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
			Addr: base, Size: uint64(len(code)), Data: code,
		}},
	}
}

// checkWindows fails unless every block's Insts and Sizes windows are
// capped at their length, so an append can never clobber the arena
// neighbour.
func checkWindows(t *testing.T, g *Graph) {
	t.Helper()
	for _, b := range g.Blocks {
		if cap(b.Insts) != len(b.Insts) || cap(b.Sizes) != len(b.Sizes) || len(b.Insts) != len(b.Sizes) {
			t.Errorf("block %#x: Insts len %d cap %d, Sizes len %d cap %d",
				b.Addr, len(b.Insts), cap(b.Insts), len(b.Sizes), cap(b.Sizes))
		}
	}
}

func TestArenaWindowsCapped(t *testing.T) {
	g, _ := buildGraph(t, cc.DefaultConfig(), DefaultOptions())
	checkWindows(t, g)

	// je 0x1008 forks the entry block; its fall-through at 0x1002 is
	// decoded first and runs through 0x1008, so the branch target then
	// splits it in two halves of one arena window.
	code := []byte{0x74, 0x06, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0xC3}
	g, err := Build(textFile(code), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, g)
	y, z := g.Blocks[0x1002], g.Blocks[0x1008]
	if y == nil || z == nil {
		t.Fatalf("blocks %v: want a split at 0x1008", g.SortedBlocks())
	}
	if len(y.Insts) != 6 || !y.HasFall || y.Fall != 0x1008 || len(z.Insts) != 2 {
		t.Errorf("split halves: head %d insts fall %v %#x, tail %d insts", len(y.Insts), y.HasFall, y.Fall, len(z.Insts))
	}
	// Appending to the head must not overwrite the tail's first
	// instruction, which follows it in the arena.
	_ = append(y.Insts, x86.Inst{Op: x86.UD2})
	if z.Insts[0].Op != x86.NOP {
		t.Errorf("append to the head clobbered the tail: %v", z.Insts[0])
	}
}

// TestFallIntoEmptyBlock covers a block start that owns no instruction:
// a fall-through reaching a zero-instruction invalid block stops there.
func TestFallIntoEmptyBlock(t *testing.T) {
	const bad = 0x06 // push es: not encodable in 64-bit mode
	if _, _, err := x86.Decode([]byte{bad, 0, 0, 0}); err == nil {
		t.Fatalf("byte %#x decodes", bad)
	}
	// 0x1000: call 0x1007; 0x1005: jmp 0x1009; 0x1007: nop; nop;
	// 0x1009: undecodable. The jmp target is decoded before the call
	// target, so the callee's straight line runs into an empty block.
	code := []byte{0xE8, 0x02, 0x00, 0x00, 0x00, 0xEB, 0x02, 0x90, 0x90, bad, 0x90, 0xC3}
	g, err := Build(textFile(code), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	empty, callee := g.Blocks[0x1009], g.Blocks[0x1007]
	if empty == nil || callee == nil {
		t.Fatalf("blocks %v: want 0x1007 and 0x1009", g.SortedBlocks())
	}
	if len(empty.Insts) != 0 || !empty.Invalid {
		t.Errorf("block 0x1009: %d insts, invalid %v; want an empty invalid block", len(empty.Insts), empty.Invalid)
	}
	if len(callee.Insts) != 2 || !callee.HasFall || callee.Fall != 0x1009 || callee.Invalid {
		t.Errorf("block 0x1007: %d insts, fall %v %#x, invalid %v; want 2 insts falling into 0x1009",
			len(callee.Insts), callee.HasFall, callee.Fall, callee.Invalid)
	}
	checkWindows(t, g)
}

// TestTextWithoutFileData checks that an executable section carrying no
// file bytes (SHT_NOBITS) is rejected with an error, not indexed.
func TestTextWithoutFileData(t *testing.T) {
	_, bin := buildGraph(t, cc.DefaultConfig(), DefaultOptions())
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	text.Type, text.Data = elfx.SHTNobits, nil
	if _, err := Build(f, DefaultOptions()); err == nil || !strings.HasPrefix(err.Error(), "cfg: ") {
		t.Fatalf("Build = %v, want a cfg: error", err)
	}
}
