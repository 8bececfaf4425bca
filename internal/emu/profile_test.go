package emu

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/x86"
)

var updateProfile = flag.Bool("update-profile", false, "rewrite profile golden files")

// instOffsets encodes each instruction and returns its offset from the
// start of the sequence, so branch targets can be computed instead of
// hand-counted.
func instOffsets(t *testing.T, insts []x86.Inst) []int {
	t.Helper()
	offs := make([]int, len(insts))
	off := 0
	for i, in := range insts {
		offs[i] = off
		b, err := x86.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		off += len(b)
	}
	return offs
}

// profiledMachine runs a small deterministic program under profiling:
// a call/ret pair under CET enforcement, one write syscall, and exit.
func profiledMachine(t *testing.T) *Machine {
	t.Helper()
	const base = 0x1000
	insts := []x86.Inst{
		{Op: x86.ENDBR64},
		{Op: x86.CALL, Src: x86.Rel(0).Arg()}, // patched below to target fn
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(1).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(1).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RSI.Arg(), Src: x86.Imm(base).Arg()}, // write the code bytes themselves
		{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.Imm(4).Arg()},
		{Op: x86.SYSCALL},
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()},
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(7).Arg()},
		{Op: x86.SYSCALL},
		{Op: x86.ENDBR64}, // fn:
		{Op: x86.RET},
	}
	offs := instOffsets(t, insts)
	insts[1].Src = x86.Rel(offs[10] - offs[2]).Arg() // call fn, rel to next inst
	m := buildMachine(t, base, insts)
	m.EnforceCET = true
	m.Prof = NewProfile()
	return m
}

func TestProfileCounts(t *testing.T) {
	m := profiledMachine(t)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p := m.Prof
	if p.Retired() != m.Steps {
		t.Errorf("profile retired %d != machine steps %d", p.Retired(), m.Steps)
	}
	if got := p.Opcode[x86.MOV]; got != 6 {
		t.Errorf("mov count = %d, want 6", got)
	}
	if got := p.Opcode[x86.SYSCALL]; got != 2 {
		t.Errorf("syscall count = %d, want 2", got)
	}
	if p.ShadowPushes != 1 || p.ShadowPops != 1 {
		t.Errorf("shadow pushes/pops = %d/%d, want 1/1", p.ShadowPushes, p.ShadowPops)
	}
	// The direct call does not require endbr64; no indirect branch ran.
	if p.IBTChecks != 0 || p.NotrackBranches != 0 {
		t.Errorf("ibt/notrack = %d/%d, want 0/0", p.IBTChecks, p.NotrackBranches)
	}
	// Block leaders: entry, call target, return continuation.
	if len(p.Heat) != 3 {
		t.Errorf("heat has %d leaders, want 3: %v", len(p.Heat), p.Heat)
	}
	if len(p.Syscalls) != 2 {
		t.Fatalf("syscall log has %d events, want 2", len(p.Syscalls))
	}
	if p.Syscalls[0].Nr != sysWrite || p.Syscalls[0].Ret != 4 {
		t.Errorf("first syscall = %+v, want write ret 4", p.Syscalls[0])
	}
	if p.Syscalls[1].Nr != sysExit || p.Syscalls[1].Ret != 7 {
		t.Errorf("second syscall = %+v, want exit 7", p.Syscalls[1])
	}
}

func TestProfileIBTAndNotrack(t *testing.T) {
	const base = 0x1000
	// Tracked indirect jmp to an endbr64 landing pad, then a notrack
	// jmp to a target without endbr64 (legal under IBT).
	insts := []x86.Inst{
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(0).Arg()}, // patched: pad address
		{Op: x86.JMP, Src: x86.RAX.Arg()},                              // tracked
		{Op: x86.UD2},                                                  // skipped
		{Op: x86.ENDBR64},                                              // pad:
		{Op: x86.MOV, W: 8, Dst: x86.RBX.Arg(), Src: x86.Imm(0).Arg()}, // patched: tail address
		{Op: x86.JMP, Src: x86.RBX.Arg(), NoTrack: true},
		{Op: x86.UD2}, // skipped
		{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(60).Arg()}, // tail: no endbr64
		{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(0).Arg()},
		{Op: x86.SYSCALL},
	}
	offs := instOffsets(t, insts)
	insts[0].Src = x86.Imm(base + int64(offs[3])).Arg() // rax <- pad
	insts[4].Src = x86.Imm(base + int64(offs[7])).Arg() // rbx <- tail
	m := buildMachine(t, base, insts)
	m.EnforceCET = true
	m.Prof = NewProfile()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Prof.IBTChecks != 1 {
		t.Errorf("ibt checks = %d, want 1", m.Prof.IBTChecks)
	}
	if m.Prof.NotrackBranches != 1 {
		t.Errorf("notrack branches = %d, want 1", m.Prof.NotrackBranches)
	}
}

func runProfiled(t *testing.T) *Profile {
	t.Helper()
	m := profiledMachine(t)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Prof
}

func checkProfileGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateProfile {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-profile): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestProfileTextGolden(t *testing.T) {
	checkProfileGolden(t, "profile.txt", []byte(runProfiled(t).Text()))
}

func TestProfileJSONGolden(t *testing.T) {
	js, err := runProfiled(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js) {
		t.Fatal("profile JSON invalid")
	}
	checkProfileGolden(t, "profile.json", js)
}

func TestProfileTextShape(t *testing.T) {
	text := runProfiled(t).Text()
	for _, want := range []string{"opcodes:", "cet:", "ibt-checks-passed", "shadow-pushes", "blocks:", "syscalls:", "write", "exit"} {
		if !strings.Contains(text, want) {
			t.Errorf("profile text missing %q:\n%s", want, text)
		}
	}
}

// TestHeatJSONGolden locks the versioned suri.heat.v1 export: schema
// tag present, rows count-descending with address tie-break, block and
// retired totals consistent with the profile.
func TestHeatJSONGolden(t *testing.T) {
	prof := runProfiled(t)
	js, err := prof.HeatJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema  string `json:"schema"`
		Retired uint64 `json:"retired"`
		Blocks  int    `json:"blocks"`
		Heat    []struct {
			Addr  uint64 `json:"addr"`
			Count uint64 `json:"count"`
		} `json:"heat"`
	}
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != HeatSchema {
		t.Fatalf("schema = %q, want %q", out.Schema, HeatSchema)
	}
	if out.Retired != prof.Retired() || out.Blocks != len(out.Heat) || out.Blocks == 0 {
		t.Fatalf("totals inconsistent: %+v (retired %d)", out, prof.Retired())
	}
	for i := 1; i < len(out.Heat); i++ {
		prev, cur := out.Heat[i-1], out.Heat[i]
		if cur.Count > prev.Count || (cur.Count == prev.Count && cur.Addr <= prev.Addr) {
			t.Fatalf("heat rows out of order at %d: %+v", i, out.Heat)
		}
	}
	checkProfileGolden(t, "heat.json", js)

	// An empty profile still emits the schema envelope with a [] array.
	empty, err := NewProfile().HeatJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(empty), HeatSchema) || !strings.Contains(string(empty), `"heat": []`) {
		t.Fatalf("empty heat export malformed:\n%s", empty)
	}
}
