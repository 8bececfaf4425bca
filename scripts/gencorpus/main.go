// Command gencorpus regenerates the checked-in fuzz seed corpora under
// each package's testdata/fuzz/<Target>/ directory, in the "go test
// fuzz v1" encoding. The seeds are derived from real pipeline artifacts
// — a compiled CET/PIE binary, its .text bytes, a built .eh_frame — so
// `go test -run=Fuzz` exercises the fuzz targets on representative
// inputs offline, and `go test -fuzz` mutates from a structured
// neighbourhood instead of pure noise.
//
// Run from the repo root:
//
//	go run ./scripts/gencorpus
package main

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/cc"
	"repro/internal/ehframe"
	"repro/internal/elfx"
	"repro/internal/prog"
)

// seed writes one corpus file: each value becomes one encoded line.
func seed(dir, name string, vals ...any) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	out := "go test fuzz v1\n"
	for _, v := range vals {
		switch v := v.(type) {
		case []byte:
			out += "[]byte(" + strconv.Quote(string(v)) + ")\n"
		case uint64:
			out += fmt.Sprintf("uint64(%d)\n", v)
		default:
			log.Fatalf("seed %s: unsupported value type %T", name, v)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
		log.Fatal(err)
	}
}

// nobitsText returns a copy of bin whose .text section header says
// SHT_NOBITS: the section keeps its size and flags but carries no file
// bytes.
func nobitsText(bin []byte) []byte {
	ef, err := elf.NewFile(bytes.NewReader(bin))
	if err != nil {
		log.Fatal(err)
	}
	shoff := binary.LittleEndian.Uint64(bin[40:])
	shentsize := uint64(binary.LittleEndian.Uint16(bin[58:]))
	for i, s := range ef.Sections {
		if s.Name == ".text" {
			mut := append([]byte(nil), bin...)
			binary.LittleEndian.PutUint32(mut[shoff+uint64(i)*shentsize+4:], uint32(elf.SHT_NOBITS))
			return mut
		}
	}
	log.Fatal("no .text section")
	return nil
}

func main() {
	p := prog.Suites(0.03)[0].Programs[0]
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	f, err := elfx.Read(bin)
	if err != nil {
		log.Fatal(err)
	}

	// internal/elfx: the real binary plus structural damage around the
	// exact fields Read validates (magic, shoff, section sizes).
	dir := "internal/elfx/testdata/fuzz/FuzzReadELF"
	seed(dir, "compiled", bin)
	seed(dir, "truncated-third", bin[:len(bin)/3])
	seed(dir, "header-only", bin[:64])
	mut := append([]byte(nil), bin...)
	mut[0] = 0x7E
	seed(dir, "bad-magic", mut)
	mut = append([]byte(nil), bin...)
	for i := 40; i < 48; i++ {
		mut[i] = 0xFF // e_shoff
	}
	seed(dir, "wild-shoff", mut)

	// internal/ehframe: the binary's own .eh_frame when present, a
	// freshly built section, and a truncation.
	dir = "internal/ehframe/testdata/fuzz/FuzzEHFrame"
	if s := f.Section(".eh_frame"); s != nil {
		seed(dir, "compiled", s.Addr, s.Data)
		seed(dir, "compiled-truncated", s.Addr, s.Data[:len(s.Data)/2])
	}
	built := ehframe.Build(0x4000, []ehframe.FuncRange{
		{Start: 0x1000, Size: 0x40},
		{Start: 0x1040, Size: 0x123},
		{Start: 0x2000, Size: 0x8},
	})
	seed(dir, "built", uint64(0x4000), built)
	seed(dir, "terminator", uint64(0), []byte{0, 0, 0, 0})

	dir = "internal/ehframe/testdata/fuzz/FuzzLEB"
	seed(dir, "max-uleb", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	seed(dir, "min-sleb", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F})
	seed(dir, "overflow", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	seed(dir, "unterminated", []byte{0x80, 0x80, 0x80})

	// internal/x86: real .text bytes — every byte offset of these is a
	// decode attempt in the superset CFG, so they are the densest seeds
	// available — plus truncation shapes the table tests use.
	dir = "internal/x86/testdata/fuzz/FuzzDecode"
	if s := f.Section(".text"); s != nil {
		text := s.Data
		if len(text) > 512 {
			text = text[:512]
		}
		seed(dir, "text-prefix", text)
		if len(s.Data) > 32 {
			seed(dir, "text-tail", s.Data[len(s.Data)-32:])
		}
	}
	seed(dir, "endbr64", []byte{0xF3, 0x0F, 0x1E, 0xFA})
	seed(dir, "riprel-lea", []byte{0x48, 0x8D, 0x05, 0x01, 0x02, 0x03, 0x04})
	seed(dir, "truncated-sib", []byte{0x48, 0x8B, 0x04})

	// internal/core: the full-pipeline target gets the binary, the same
	// structural mutants the verdict tests use, and a .text without file
	// data.
	dir = "internal/core/testdata/fuzz/FuzzRewrite"
	seed(dir, "compiled", bin)
	seed(dir, "truncated-third", bin[:len(bin)/3])
	mut = append([]byte(nil), bin...)
	mut[0] = 0x7E
	seed(dir, "bad-magic", mut)
	mut = append([]byte(nil), bin...)
	for i := 24; i < 32; i++ {
		mut[i] = 0x7F // e_entry
	}
	seed(dir, "wild-entry", mut)
	seed(dir, "nobits-text", nobitsText(bin))

	fmt.Println("gencorpus: corpora written")
}
