package emu

import (
	"fmt"

	"repro/internal/elfx"
	"repro/internal/x86"
)

// Options configure loading and execution.
type Options struct {
	// Bias is the PIE load bias (ASLR slide). Zero means DefaultBias.
	Bias uint64

	// StackTop/StackSize place the stack; zero means defaults.
	StackTop  uint64
	StackSize uint64

	// Input is the byte stream served by the read syscall.
	Input []byte

	// MaxSteps bounds execution; zero means the machine default.
	MaxSteps uint64

	// Shadow maps the sanitizer shadow region read-write on demand.
	Shadow bool

	// DisableCET turns off IBT/shadow-stack enforcement even for
	// CET-enabled binaries.
	DisableCET bool

	// Profile enables execution profiling (opcode histogram, block
	// heat, syscall log, CET event counters); the profile is returned
	// in Result.Prof. Disabled costs nothing.
	Profile bool

	// Engine selects the execution engine: EngineTiered (the zero
	// default) runs the tiered superblock engine, EngineInterpreter
	// forces the interpreter.
	Engine EngineKind

	// HeatSeed maps runtime addresses (load bias applied) to block
	// execution counts from a prior profiled run (Profile.Heat /
	// "suri.heat.v1"). The tiered engine translates seeded-hot blocks
	// on first encounter instead of waiting for its own counter.
	HeatSeed map[uint64]uint64

	// Capture, if non-empty (Start < End), snapshots the given
	// link-time address range — typically the .suri.instr payload
	// section — from guest memory after the run finishes. The load
	// bias is applied automatically; the bytes land in
	// Result.Captured (best-effort: nil if the range is unmapped).
	Capture Range
}

// Default placement constants.
const (
	DefaultBias      = 0x1000_0000
	DefaultStackTop  = 0x7FF0_0000
	DefaultStackSize = 0x10_0000

	// ShadowRange is the sanitizer shadow region (see internal/cc:
	// shadow byte for A is at 0x70000000 + A>>3).
	ShadowStart = 0x7000_0000
	ShadowEnd   = 0x7000_0000 + 0x1000_0000

	// tlsTP is the thread pointer (FS base) for PT_TLS binaries: the
	// TLS block occupies [tlsTP-memsz, tlsTP), below the stack region.
	tlsTP       = 0x7FD0_0000
	tlsAreaSize = 0x1_0000
)

// Load maps an ELF binary into a fresh machine, applies its relocations
// at the chosen bias, and points RIP at the entry point.
func Load(bin []byte, opts Options) (*Machine, error) {
	f, err := elfx.Read(bin)
	if err != nil {
		return nil, err
	}
	return LoadFile(f, opts)
}

// LoadFile is Load for an already-parsed ELF file (Raw must be set).
func LoadFile(f *elfx.File, opts Options) (*Machine, error) {
	m := NewMachine()
	if err := loadInto(m, f, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// Reload re-initializes a machine for a fresh run of the same image,
// preserving its predecoded page planes. The caller contract is that f
// is the identical file previously loaded into m, at the same bias —
// executable pages are then byte-identical, so the decode planes carry
// over soundly. Validated rewrites use this to amortize decoding across
// retry attempts and per-input runs.
func Reload(m *Machine, f *elfx.File, opts Options) error {
	m.Reset()
	return loadInto(m, f, opts)
}

func loadInto(m *Machine, f *elfx.File, opts Options) error {
	if f.Raw == nil {
		return fmt.Errorf("emu: file has no raw bytes")
	}
	bias := opts.Bias
	if bias == 0 {
		bias = DefaultBias
	}
	stackTop := opts.StackTop
	if stackTop == 0 {
		stackTop = DefaultStackTop
	}
	stackSize := opts.StackSize
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}

	if opts.MaxSteps != 0 {
		m.MaxSteps = opts.MaxSteps
	}
	if opts.Profile {
		m.Prof = NewProfile()
	}
	m.Engine = opts.Engine
	if opts.HeatSeed != nil {
		m.heatSeed = opts.HeatSeed
	}
	m.SetInput(opts.Input)

	// Decode caches (page planes, translations) are sound only while
	// the executable bytes they were built from are identical. Reload
	// documents a same-image contract, but trusting it silently would
	// turn a caller bug into wrong execution — so detect a different
	// image or bias here and invalidate instead.
	var img *byte
	if len(f.Raw) > 0 {
		img = &f.Raw[0]
	}
	if m.loadedImg != nil && (m.loadedImg != img || m.loadedBias != bias) {
		m.InvalidatePlanes()
	}
	m.loadedImg, m.loadedBias = img, bias

	// Map PT_LOAD segments read-write first, copy file content, apply
	// relocations, then drop to the real permissions (the kernel+ld.so
	// equivalent of RELRO processing).
	type pending struct {
		vaddr, memsz uint64
		perm         uint8
	}
	var finals []pending
	for _, seg := range f.Segments {
		if seg.Type != elfx.PTLoad || seg.Memsz == 0 {
			continue
		}
		va := bias + seg.Vaddr
		m.Mem.Map(va, seg.Memsz, PermR|PermW)
		if seg.Filesz > 0 {
			if seg.Off+seg.Filesz > uint64(len(f.Raw)) {
				return fmt.Errorf("emu: segment at %#x overruns file", seg.Vaddr)
			}
			if err := m.Mem.Write(va, f.Raw[seg.Off:seg.Off+seg.Filesz]); err != nil {
				return err
			}
		}
		perm := PermR
		if seg.Flags&elfx.PFW != 0 {
			perm |= PermW
		}
		if seg.Flags&elfx.PFX != 0 {
			perm |= PermX
		}
		if perm&PermW != 0 && perm&PermX != 0 {
			return fmt.Errorf("emu: W+X segment at %#x refused", seg.Vaddr)
		}
		finals = append(finals, pending{vaddr: va, memsz: seg.Memsz, perm: perm})
	}

	for _, r := range relocations(f) {
		if r.Type != elfx.RX8664Relative {
			return fmt.Errorf("emu: unsupported relocation type %d", r.Type)
		}
		if err := m.Mem.WriteU64(bias+r.Off, bias+uint64(r.Addend), 8); err != nil {
			return fmt.Errorf("emu: relocation at %#x: %w", r.Off, err)
		}
	}

	for _, p := range finals {
		m.Mem.Protect(p.vaddr, p.memsz, p.perm)
	}

	// Stack: a demand-zero range, so a run allocates only the pages it
	// touches. The range is page-rounded, as Map would round it.
	m.Mem.AddAutoRW(pageRange(stackTop-stackSize, stackSize))
	m.Regs[x86.RSP] = stackTop - 64

	// Thread-local storage (x86-64 variant 2): the thread pointer (FS
	// base) sits at the end of the thread's TLS block, so local-exec
	// access is fs:[-offset]. Like the glibc TCB, [TP] holds the thread
	// pointer itself, which compiled code loads (mov r, fs:[0]) to form
	// ordinary base+index addresses into the block. The area is
	// demand-zero like the stack.
	for _, seg := range f.Segments {
		if seg.Type != elfx.PTTLS {
			continue
		}
		if seg.Memsz > tlsAreaSize-16 {
			return fmt.Errorf("emu: PT_TLS block of %d bytes exceeds the %d-byte TLS area", seg.Memsz, tlsAreaSize)
		}
		m.Mem.AddAutoRW(pageRange(tlsTP-tlsAreaSize, tlsAreaSize+PageSize))
		if seg.Filesz > 0 {
			if seg.Off+seg.Filesz > uint64(len(f.Raw)) {
				return fmt.Errorf("emu: PT_TLS segment at %#x overruns file", seg.Vaddr)
			}
			if err := m.Mem.Write(tlsTP-seg.Memsz, f.Raw[seg.Off:seg.Off+seg.Filesz]); err != nil {
				return err
			}
		}
		if err := m.Mem.WriteU64(tlsTP, tlsTP, 8); err != nil {
			return err
		}
		m.FSBase = tlsTP
		break
	}

	if opts.Shadow {
		m.Mem.AddAutoRW(Range{Start: ShadowStart, End: ShadowEnd})
	}

	m.RIP = bias + f.Entry
	m.EnforceCET = f.HasCET() && !opts.DisableCET
	return nil
}

// pageRange returns the page-aligned range covering [addr, addr+size):
// the pages Map would create for the same arguments.
func pageRange(addr, size uint64) Range {
	return Range{Start: addr &^ (PageSize - 1), End: (addr + size + PageSize - 1) &^ (PageSize - 1)}
}

// relocations returns the file's rebase relocations, preferring the
// PT_DYNAMIC route (DT_RELA/DT_RELASZ) and falling back to the .rela.dyn
// section.
func relocations(f *elfx.File) []elfx.Rela {
	for _, seg := range f.Segments {
		if seg.Type != elfx.PTDynamic {
			continue
		}
		if seg.Off+seg.Filesz > uint64(len(f.Raw)) {
			break
		}
		dyn := elfx.ParseDynamic(f.Raw[seg.Off : seg.Off+seg.Filesz])
		var relaAddr, relaSz uint64
		for _, e := range dyn {
			switch int64(e[0]) {
			case elfx.DTRela:
				relaAddr = e[1]
			case elfx.DTRelasz:
				relaSz = e[1]
			}
		}
		if relaAddr == 0 || relaSz == 0 {
			break
		}
		// DT_RELA holds a vaddr; in our identity-offset files vaddr ==
		// file offset for mapped content.
		if relaAddr+relaSz <= uint64(len(f.Raw)) {
			return elfx.ParseRela(f.Raw[relaAddr : relaAddr+relaSz])
		}
	}
	if sec := f.Section(".rela.dyn"); sec != nil {
		return elfx.ParseRela(sec.Data)
	}
	return nil
}

// Result summarizes a complete program execution.
type Result struct {
	Stdout []byte
	Stderr []byte
	Exit   int
	Steps  uint64

	// Prof is the execution profile when Options.Profile was set.
	Prof *Profile

	// Tier is the tiered engine's counters, nil for interpreted runs.
	Tier *TierStats

	// Captured is the Options.Capture range's post-run contents.
	Captured []byte
}

// Run loads and executes a binary to completion.
func Run(bin []byte, opts Options) (*Result, error) {
	m, err := Load(bin, opts)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return &Result{Stdout: m.Stdout, Stderr: m.Stderr, Exit: -1, Steps: m.Steps,
			Prof: m.Prof, Tier: m.TierStats(), Captured: capture(m, opts)}, err
	}
	_, code := m.Exited()
	return &Result{Stdout: m.Stdout, Stderr: m.Stderr, Exit: code, Steps: m.Steps,
		Prof: m.Prof, Tier: m.TierStats(), Captured: capture(m, opts)}, nil
}

// capture snapshots the Options.Capture range (link-time addresses)
// from guest memory, applying the load bias.
func capture(m *Machine, opts Options) []byte {
	if opts.Capture.Start >= opts.Capture.End {
		return nil
	}
	bias := opts.Bias
	if bias == 0 {
		bias = DefaultBias
	}
	buf := make([]byte, opts.Capture.End-opts.Capture.Start)
	if err := m.Mem.Read(bias+opts.Capture.Start, buf); err != nil {
		return nil
	}
	return buf
}
