package asm

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/x86"
)

var update = flag.Bool("update", false, "rewrite testdata/assemble_manifest.txt")

const manifestPath = "testdata/assemble_manifest.txt"

// randomProgram builds a seeded program exercising every item kind the
// incremental relaxer caches: short and long branches in both
// directions, calls, alignment, raw data, and the data directives.
func randomProgram(r *rand.Rand, n int) *Program {
	var p Program
	p.Sets = append(p.Sets, Set{Name: "pin", Addr: 0x5000})
	text := p.Section(".text", Alloc|Exec)
	nlabels := n/4 + 2
	lab := func(i int) string { return fmt.Sprintf("l%03d", i) }
	for i := 0; i < n; i++ {
		if i%(n/nlabels+1) == 0 && i/(n/nlabels+1) < nlabels {
			text.L(lab(i / (n/nlabels + 1)))
		}
		switch r.Intn(8) {
		case 0:
			text.IS(x86.Inst{Op: x86.JMP, Src: x86.Rel(0)}, lab(r.Intn(nlabels)), 0)
		case 1:
			text.IS(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0)}, lab(r.Intn(nlabels)), 0)
		case 2:
			text.IS(x86.Inst{Op: x86.CALL, Src: x86.Rel(0)}, lab(r.Intn(nlabels)), 0)
		case 3:
			text.Align2(uint64(8 << r.Intn(3)))
		case 4:
			// Padding that pushes label distances past the rel8 range
			// often enough to force several relaxation rounds.
			text.Raw(bytes.Repeat([]byte{0x90}, r.Intn(120)))
		case 5:
			text.I(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX, Src: x86.Imm(int64(r.Intn(1 << 16)))})
		case 6:
			text.I(x86.Inst{Op: x86.RET})
		default:
			text.I(x86.Inst{Op: x86.NOP})
		}
	}
	for i := 0; i < nlabels; i++ {
		text.L(lab(i) + "_dup_guard") // unique; keeps label table dense
	}
	// Every referenced label must exist even if the loop above emitted
	// fewer anchor points than nlabels.
	defined := map[string]bool{}
	for _, it := range text.Items {
		if l, ok := it.(Label); ok {
			defined[l.Name] = true
		}
	}
	for i := 0; i < nlabels; i++ {
		if !defined[lab(i)] {
			text.L(lab(i))
		}
	}
	text.I(x86.Inst{Op: x86.RET})

	data := p.Section(".data", Alloc|Write)
	data.L("dat")
	data.Q(lab(0), 8)
	data.D8(uint64(r.Int63()))
	data.D4(uint32(r.Int31()))
	data.Diff(lab(1), lab(0), 4)
	data.Items = append(data.Items, Space{N: uint64(r.Intn(64))})
	return &p
}

// resultDigest hashes everything Assemble decides: each section's name,
// address, size and bytes, the symbol table in name order, the
// relocations in output order, and the relaxation round count. A failed
// assembly hashes its error text instead.
func resultDigest(res *Result, err error) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return hex.EncodeToString(h.Sum(nil))
	}
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(len(res.Sections)))
	for _, s := range res.Sections {
		str(s.Name)
		u64(s.Addr)
		u64(s.Size)
		u64(uint64(len(s.Data)))
		h.Write(s.Data)
	}
	names := make([]string, 0, len(res.Symbols))
	for name := range res.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	u64(uint64(len(names)))
	for _, name := range names {
		str(name)
		u64(res.Symbols[name])
	}
	u64(uint64(len(res.Relocs)))
	for _, r := range res.Relocs {
		u64(r.Offset)
		u64(r.Addend)
	}
	u64(uint64(res.RelaxRounds))
	return hex.EncodeToString(h.Sum(nil))
}

// TestAssembleManifest is the relaxation determinism oracle: for seeded
// random programs, Assemble's sections, symbols, relocations and round
// count must hash to the checked-in digests. The manifest was recorded
// while a second, re-measure-everything assembler still agreed with this
// one byte for byte. Run with -update to regenerate it after a
// deliberate output change.
func TestAssembleManifest(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(1); seed <= 20; seed++ {
		p := randomProgram(rand.New(rand.NewSource(seed)), 400)
		res, err := Assemble(p, 0x1000)
		fmt.Fprintf(&got, "%s seed%02d\n", resultDigest(res, err), seed)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantSums, gotSums := parseManifest(t, want), parseManifest(t, got.Bytes())
	for name, sum := range gotSums {
		switch w, ok := wantSums[name]; {
		case !ok:
			t.Errorf("%s: not in manifest", name)
		case w != sum:
			t.Errorf("%s: assembly changed: sha256 %s, manifest %s", name, sum, w)
		}
	}
	for name := range wantSums {
		if _, ok := gotSums[name]; !ok {
			t.Errorf("%s: in manifest but not assembled", name)
		}
	}
}

// TestAssembleReuseDeterministic re-assembles the same program twice
// through the incremental path: the item-info cache must not leak state
// between runs.
func TestAssembleReuseDeterministic(t *testing.T) {
	p := randomProgram(rand.New(rand.NewSource(7)), 300)
	a, err := Assemble(p, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble(p, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sections {
		if !bytes.Equal(a.Sections[i].Data, b.Sections[i].Data) {
			t.Errorf("section %q differs across identical assemblies", a.Sections[i].Name)
		}
	}
}

func parseManifest(t *testing.T, data []byte) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed manifest line %q", sc.Text())
		}
		sums[name] = sum
	}
	return sums
}
