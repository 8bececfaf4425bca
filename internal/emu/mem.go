// Package emu executes x86-64 ELF binaries produced by this repository:
// it is the stand-in for the paper's native test-suite runs (§4.1.2). The
// machine enforces the properties a symbolization error would violate —
// page permissions (W^X), CET indirect-branch tracking (endbr64/notrack),
// and a shadow stack — and counts retired instructions, which the
// evaluation uses as its runtime-overhead metric (§4.3).
package emu

import (
	"fmt"
	"sort"
)

// PageSize is the memory granularity for permissions.
const PageSize = 0x1000

// Permission bits.
const (
	PermR uint8 = 1 << iota
	PermW
	PermX
)

type page struct {
	data [PageSize]byte
	perm uint8
}

// Memory is a sparse paged address space.
type Memory struct {
	pages map[uint64]*page

	// autoRW holds the demand-zero ranges: each page in them is mapped
	// read-write, zero-filled, on its first data access (the stack, the
	// TLS area, the sanitizer shadow region).
	autoRW []Range
}

// Range is a half-open address interval.
type Range struct {
	Start, End uint64
}

// Contains reports whether addr lies in the range.
func (r Range) Contains(addr uint64) bool { return addr >= r.Start && addr < r.End }

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Map creates pages covering [addr, addr+size) with the given permissions.
// Existing pages in the range have their permissions replaced.
func (m *Memory) Map(addr, size uint64, perm uint8) {
	if size == 0 {
		return
	}
	first := addr &^ (PageSize - 1)
	last := (addr + size - 1) &^ (PageSize - 1)
	for pa := first; ; pa += PageSize {
		p, ok := m.pages[pa]
		if !ok {
			p = &page{}
			m.pages[pa] = p
		}
		p.perm = perm
		if pa == last {
			break
		}
	}
}

// Protect changes permissions of existing pages covering the range.
func (m *Memory) Protect(addr, size uint64, perm uint8) {
	if size == 0 {
		return
	}
	first := addr &^ (PageSize - 1)
	last := (addr + size - 1) &^ (PageSize - 1)
	for pa := first; ; pa += PageSize {
		if p, ok := m.pages[pa]; ok {
			p.perm = perm
		}
		if pa == last {
			break
		}
	}
}

// AddAutoRW registers a demand-zero range: a data access to any address
// in it maps that page read-write and zero-filled, exactly as if the
// page had been mapped up front, so a run allocates only the pages it
// touches. Instruction fetch never maps these pages, so executing from
// one faults "exec" like any non-executable page.
func (m *Memory) AddAutoRW(r Range) { m.autoRW = append(m.autoRW, r) }

// Fault is a memory access violation.
type Fault struct {
	Addr uint64
	Kind string // "read", "write", "exec"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("emu: %s fault at %#x", f.Kind, f.Addr)
}

func (m *Memory) pageFor(addr uint64, need uint8, kind string) (*page, error) {
	p := m.dataPage(addr)
	if p == nil || p.perm&need != need {
		return nil, &Fault{Addr: addr, Kind: kind}
	}
	return p, nil
}

// dataPage returns the page containing addr for a data access, mapping
// it first when addr lies in a demand-zero range, or nil when the page
// is unmapped.
func (m *Memory) dataPage(addr uint64) *page {
	pa := addr &^ (PageSize - 1)
	if p, ok := m.pages[pa]; ok {
		return p
	}
	for _, r := range m.autoRW {
		if r.Contains(addr) {
			p := &page{perm: PermR | PermW}
			m.pages[pa] = p
			return p
		}
	}
	return nil
}

// Read copies size bytes at addr, checking read permission.
func (m *Memory) Read(addr uint64, buf []byte) error {
	return m.access(addr, buf, PermR, "read", false)
}

// Write stores the bytes at addr, checking write permission.
func (m *Memory) Write(addr uint64, buf []byte) error {
	return m.access(addr, buf, PermW, "write", true)
}

// Fetch copies size bytes at addr, checking execute permission.
func (m *Memory) Fetch(addr uint64, buf []byte) error {
	return m.access(addr, buf, PermX, "exec", false)
}

// FetchSpan copies up to len(buf) executable bytes starting at addr in
// one ranged walk (at most two pages for an instruction fetch), stopping
// at the first unmapped or non-executable page. It returns the number of
// bytes copied and never allocates — the instruction-fetch hot path
// calls it instead of issuing byte-at-a-time Fetches.
func (m *Memory) FetchSpan(addr uint64, buf []byte) int {
	done := 0
	for done < len(buf) {
		p := m.execPage(addr + uint64(done))
		if p == nil {
			break
		}
		off := int((addr + uint64(done)) & (PageSize - 1))
		n := copyLen(len(buf)-done, PageSize-off)
		copy(buf[done:done+n], p.data[off:off+n])
		done += n
	}
	return done
}

// execPage returns the executable page containing addr, or nil.
// Demand-zero ranges are never executable, so no on-demand mapping
// happens here.
func (m *Memory) execPage(addr uint64) *page {
	p, ok := m.pages[addr&^(PageSize-1)]
	if !ok || p.perm&PermX == 0 {
		return nil
	}
	return p
}

// PageData returns the backing bytes of the page containing addr when
// it is mapped with the needed permission, or nil. Demand-zero ranges
// map on first touch, exactly as a faulting access would. The tiered
// engine's data TLB caches the returned slice; it never allocates on
// the miss path, so callers can probe freely and fall back to
// Read/Write for the canonical Fault error.
func (m *Memory) PageData(addr uint64, need uint8) []byte {
	p := m.dataPage(addr)
	if p == nil || p.perm&need != need {
		return nil
	}
	return p.data[:]
}

func (m *Memory) access(addr uint64, buf []byte, need uint8, kind string, store bool) error {
	for done := 0; done < len(buf); {
		p, err := m.pageFor(addr+uint64(done), need, kind)
		if err != nil {
			return err
		}
		off := int((addr + uint64(done)) & (PageSize - 1))
		n := copyLen(len(buf)-done, PageSize-off)
		if store {
			copy(p.data[off:off+n], buf[done:done+n])
		} else {
			copy(buf[done:done+n], p.data[off:off+n])
		}
		done += n
	}
	return nil
}

func copyLen(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ReadU64 loads a little-endian value of the given width (1, 2, 4, or 8
// bytes) without sign extension.
func (m *Memory) ReadU64(addr uint64, width int) (uint64, error) {
	var buf [8]byte
	if err := m.Read(addr, buf[:width]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v, nil
}

// WriteU64 stores a little-endian value of the given width.
func (m *Memory) WriteU64(addr uint64, v uint64, width int) error {
	var buf [8]byte
	for i := 0; i < width; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:width])
}

// MappedRanges returns the mapped page ranges, coalesced, for debugging.
// Demand-zero pages (the stack, the TLS area, the sanitizer shadow)
// appear only once touched: a fresh load lists its ELF segments, and
// the stack shows up as the pages the program has used, not as the
// whole reserved range.
func (m *Memory) MappedRanges() []Range {
	addrs := make([]uint64, 0, len(m.pages))
	for pa := range m.pages {
		addrs = append(addrs, pa)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []Range
	for _, pa := range addrs {
		if n := len(out); n > 0 && out[n-1].End == pa {
			out[n-1].End = pa + PageSize
			continue
		}
		out = append(out, Range{Start: pa, End: pa + PageSize})
	}
	return out
}
