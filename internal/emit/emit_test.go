package emit

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/elfx"
	"repro/internal/mini"
	"repro/internal/repair"
	"repro/internal/serialize"
)

func pipelineInput(t *testing.T) Input {
	t.Helper()
	m := &mini.Module{
		Name: "e",
		Funcs: []*mini.Func{{
			Name: "main",
			Body: []mini.Stmt{mini.Print{E: mini.Const(9)}, mini.Return{E: mini.Const(0)}},
		}},
	}
	bin, err := cc.Compile(m, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(f, cfg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	entries, err := serialize.Serialize(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repair.Repair(entries, g)
	if err != nil {
		t.Fatal(err)
	}
	return Input{Graph: g, Entries: entries, Sets: rep.Sets}
}

func TestEmitLayout(t *testing.T) {
	in := pipelineInput(t)
	bin, layout, err := Emit(in)
	if err != nil {
		t.Fatal(err)
	}
	if layout.NewTextAddr == 0 || layout.NewTextSize == 0 {
		t.Errorf("layout: %+v", layout)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		t.Fatal(err)
	}
	if f.Entry != layout.NewEntry {
		t.Errorf("entry %#x, layout says %#x", f.Entry, layout.NewEntry)
	}
	if f.Entry < layout.NewTextAddr || f.Entry >= layout.NewTextAddr+layout.NewTextSize {
		t.Errorf("entry %#x outside new text", f.Entry)
	}
	// No W+X segment may exist, and the original exec segment must have
	// lost execute rights.
	execLoads := 0
	for _, seg := range f.Segments {
		if seg.Type != elfx.PTLoad {
			continue
		}
		if seg.Flags&elfx.PFX != 0 {
			execLoads++
			if seg.Flags&elfx.PFW != 0 {
				t.Error("W+X segment in output")
			}
			if seg.Vaddr < layout.NewTextAddr {
				t.Errorf("original segment at %#x still executable", seg.Vaddr)
			}
		}
	}
	if execLoads != 1 {
		t.Errorf("%d executable segments, want exactly the new text", execLoads)
	}
}

func TestEmitTablePatchErrors(t *testing.T) {
	in := pipelineInput(t)
	in.TablePatches = []TablePatch{{Addr: 0x2000, Plus: in.Graph.Syms.Intern("no_such_label"), Base: 0x2000}}
	if _, _, err := Emit(in); err == nil || !strings.Contains(err.Error(), "no_such_label") {
		t.Errorf("undefined patch target accepted: %v", err)
	}
}

func TestEmitTablePatchApplies(t *testing.T) {
	in := pipelineInput(t)
	// Patch the first word of .rodata to the distance from .rodata to
	// the copied entry block.
	orig := in.Graph.File
	ro := orig.Section(".rodata")
	if ro == nil {
		t.Skip("no rodata")
	}
	in.TablePatches = []TablePatch{{
		Addr: ro.Addr,
		Plus: serialize.Label(in.Graph.Syms, orig.Entry),
		Base: ro.Addr,
	}}
	before := bytes.Clone(ro.Data)
	bin, layout, err := Emit(in)
	if err != nil {
		t.Fatal(err)
	}
	// The patch lands in the output's copy of the section: the parsed
	// input it aliases is never written.
	if !bytes.Equal(ro.Data, before) {
		t.Error("Emit patched the input's .rodata in place")
	}
	f, _ := elfx.Read(bin)
	got := f.Section(".rodata").Data
	v := int32(uint32(got[0]) | uint32(got[1])<<8 | uint32(got[2])<<16 | uint32(got[3])<<24)
	want := int64(layout.NewEntry) - int64(ro.Addr)
	if int64(v) != want {
		t.Errorf("patched word = %d, want %d", v, want)
	}
}
