package emu

import (
	"fmt"
	"slices"

	"repro/internal/harden"
	"repro/internal/x86"
)

// CETViolation is returned when indirect-branch tracking or the shadow
// stack detects a control-flow violation.
type CETViolation struct {
	RIP  uint64
	Kind string
}

func (v *CETViolation) Error() string {
	return fmt.Sprintf("emu: CET violation (%s) at %#x", v.Kind, v.RIP)
}

// ErrStepLimit matches (via errors.Is) the error returned when
// execution exceeds the step budget. It is a harden.BudgetExceeded with
// resource "emu.steps", so callers can also test the generic
// errors.Is(err, harden.ErrBudget).
var ErrStepLimit error = &harden.BudgetExceeded{Resource: "emu.steps"}

// Machine is a single-threaded x86-64 interpreter.
type Machine struct {
	Mem   *Memory
	Regs  [16]uint64
	RIP   uint64
	Flags x86.Flags

	// FSBase is the FS segment base (the TLS thread pointer). The
	// loader points it at the thread block it maps for PT_TLS binaries;
	// FS-override memory operands add it to their effective address.
	FSBase uint64

	// EnforceCET enables indirect-branch tracking and the shadow stack,
	// as on CET hardware running a CET-enabled binary.
	EnforceCET bool

	MaxSteps uint64
	Steps    uint64

	Stdout []byte
	Stderr []byte

	input []byte
	inPos int

	shadow      []uint64 // CET shadow stack
	expectEndbr bool

	exited   bool
	exitCode int

	// TraceFn, when set, is called with the address of every instruction
	// before it executes (used by tests to verify the superset property).
	TraceFn func(addr uint64)

	// Prof, when set, accumulates execution profiling (opcode histogram,
	// block heat, syscall log, CET events). Nil disables all hooks.
	Prof *Profile

	// Engine selects the execution engine (see EngineKind); the zero
	// value is the tiered engine.
	Engine EngineKind

	// profSeq is the address the previous instruction would fall through
	// to; a mismatch marks the current instruction as a block leader.
	profSeq uint64

	// planes holds one decode plane per executable page: a flat array of
	// predecoded instructions indexed by page offset. Executable pages
	// are never writable (W^X is enforced at load), so planes stay valid
	// for the machine's lifetime and survive Reset.
	planes map[uint64]*x86.Plane

	// stepPage/stepPlane hold the decode plane of the page Step last
	// fetched from, so sequential execution costs one array load per
	// instruction instead of a map lookup. A nil plane is never reused.
	stepPage  uint64
	stepPlane *x86.Plane

	// planeVersion is bumped by InvalidatePlanes; the tiered
	// translation cache revalidates against it.
	planeVersion uint64

	// tier is the tiered engine's per-machine state, created on the
	// first tiered run. It survives Reset (like the planes it is keyed
	// on) so translations amortize across Reload of the same image.
	tier *engine

	// heatSeed is Options.HeatSeed: profiled block heat that lets the
	// tiered engine translate known-hot blocks on first encounter.
	heatSeed map[uint64]uint64

	// loadedImg/loadedBias identify the image currently loaded, so
	// Reload can detect a different image or bias and invalidate the
	// decode planes instead of trusting the same-image contract.
	loadedImg  *byte
	loadedBias uint64
}

// defaultMaxSteps is the step budget applied when Options.MaxSteps is 0.
const defaultMaxSteps = 500_000_000

// NewMachine returns a machine with empty memory.
func NewMachine() *Machine {
	return &Machine{
		Mem:      NewMemory(),
		MaxSteps: defaultMaxSteps,
		planes:   make(map[uint64]*x86.Plane),
	}
}

// SetInput provides the byte stream served by the read syscall.
func (m *Machine) SetInput(b []byte) { m.input = b; m.inPos = 0 }

// Exited reports whether the program has called exit, and its code.
func (m *Machine) Exited() (bool, int) { return m.exited, m.exitCode }

// Reset returns the machine to its pre-load state — registers, flags,
// memory, I/O, CET state, step counter — while keeping the predecoded
// page planes. It exists so repeated runs of the same image
// (validated-rewrite retries, one run per input) skip re-decoding: the
// caller contract is that the machine is re-loaded with the identical
// image at the identical bias, which makes the cached decodes of the
// immutable executable pages carry over soundly.
func (m *Machine) Reset() {
	m.Mem = NewMemory()
	m.Regs = [16]uint64{}
	m.RIP = 0
	m.Flags = x86.Flags{}
	m.FSBase = 0
	m.EnforceCET = false
	m.MaxSteps = defaultMaxSteps
	m.Steps = 0
	m.Stdout = nil
	m.Stderr = nil
	m.input = nil
	m.inPos = 0
	m.shadow = m.shadow[:0]
	m.expectEndbr = false
	m.exited = false
	m.exitCode = 0
	m.Prof = nil
	m.profSeq = 0
}

// Run executes until exit, fault, or the step limit.
//
// The default path is the tiered engine (tiered.go); EngineInterpreter
// runs a plain loop over Step. Both produce bit-identical results.
func (m *Machine) Run() error {
	if m.Engine == EngineTiered {
		return m.runTiered()
	}
	for !m.exited {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one instruction.
func (m *Machine) Step() error {
	_, err := m.step()
	return err
}

// step is Step that also returns the executed instruction's encoded
// size, so the tiered engine can tell a sequential successor from a
// control transfer without decoding the instruction a second time. The
// size is 0 when no instruction was fetched.
func (m *Machine) step() (int, error) {
	if m.Steps >= m.MaxSteps {
		return 0, &harden.BudgetExceeded{Resource: "emu.steps", Limit: int64(m.MaxSteps)}
	}
	m.Steps++

	// The current page's plane is looked up only when execution enters
	// a new page, or when the last lookup found none (a page mapped
	// since must be able to gain a plane).
	rip := m.RIP
	pa := rip &^ (PageSize - 1)
	pl := m.stepPlane
	if pa != m.stepPage || pl == nil {
		pl = m.pagePlane(pa)
		m.stepPage, m.stepPlane = pa, pl
	}
	var in x86.Inst
	var size int
	var err error
	if pl != nil {
		in, size, err = pl.Decode(int(rip - pa))
	}
	if pl == nil || err != nil {
		// No plane, a page-spanning instruction, or undecodable bytes:
		// the slow path fetches across the page boundary and produces
		// the canonical error.
		if in, size, err = m.fetchSlow(rip); err != nil {
			return 0, fmt.Errorf("at %#x: %w", rip, err)
		}
	}
	if m.TraceFn != nil {
		m.TraceFn(rip)
	}
	if m.Prof != nil {
		m.Prof.Opcode[in.Op]++
		if rip != m.profSeq {
			m.Prof.Heat[rip]++
		}
		m.profSeq = rip + uint64(size)
	}

	if m.EnforceCET && m.expectEndbr {
		if in.Op != x86.ENDBR64 {
			return size, &CETViolation{RIP: rip, Kind: "missing endbr64"}
		}
		if m.Prof != nil {
			m.Prof.IBTChecks++
		}
	}
	m.expectEndbr = false

	if err := m.exec(in, size); err != nil {
		return size, fmt.Errorf("at %#x (%s): %w", rip, in, err)
	}
	return size, nil
}

// fetch decodes the instruction at addr, using the page decode plane.
// Executable pages are never writable, so cached decodes stay valid.
func (m *Machine) fetch(addr uint64) (x86.Inst, int, error) {
	pa := addr &^ (PageSize - 1)
	if pl := m.pagePlane(pa); pl != nil {
		if in, size, err := pl.Decode(int(addr - pa)); err == nil {
			return in, size, nil
		}
	}
	return m.fetchSlow(addr)
}

// pagePlane returns (building on first touch) the decode plane of the
// executable page at page-aligned address pa, or nil when the page is
// unmapped or not executable. Misses are not cached negatively: a page
// mapped later must be able to gain a plane.
func (m *Machine) pagePlane(pa uint64) *x86.Plane {
	if pl, ok := m.planes[pa]; ok {
		return pl
	}
	p := m.Mem.execPage(pa)
	if p == nil {
		return nil
	}
	pl := x86.NewPlane(p.data[:])
	m.planes[pa] = pl
	return pl
}

// fetchSlow handles everything the page plane cannot: instructions that
// span a page boundary, faults, and undecodable bytes (where it builds
// the canonical error). One ranged FetchSpan replaces the historical
// 15 single-byte Fetch calls.
func (m *Machine) fetchSlow(addr uint64) (x86.Inst, int, error) {
	var buf [15]byte
	n := m.Mem.FetchSpan(addr, buf[:])
	if n == 0 {
		return x86.Inst{}, 0, &Fault{Addr: addr, Kind: "exec"}
	}
	in, size, err := x86.Decode(buf[:n])
	if err != nil {
		return x86.Inst{}, 0, fmt.Errorf("undecodable instruction (% x): %w", buf[:minInt(n, 8)], err)
	}
	return in, size, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Linux x86-64 syscall numbers supported by the machine.
const (
	sysRead  = 0
	sysWrite = 1
	sysExit  = 60
)

func (m *Machine) syscall() error {
	nr := m.Regs[x86.RAX]
	switch nr {
	case sysRead:
		fd := m.Regs[x86.RDI]
		if fd != 0 {
			m.Regs[x86.RAX] = ^uint64(8) // -EBADF
			break
		}
		buf := m.Regs[x86.RSI]
		n := int(m.Regs[x86.RDX])
		avail := len(m.input) - m.inPos
		if n > avail {
			n = avail
		}
		if n > 0 {
			if err := m.Mem.Write(buf, m.input[m.inPos:m.inPos+n]); err != nil {
				return err
			}
			m.inPos += n
		}
		m.Regs[x86.RAX] = uint64(n)
	case sysWrite:
		fd := m.Regs[x86.RDI]
		buf := m.Regs[x86.RSI]
		n := int(m.Regs[x86.RDX])
		if n < 0 || n > 1<<24 {
			return fmt.Errorf("emu: unreasonable write length %d", n)
		}
		// Read straight into the tail of the output stream; a fault
		// truncates it back, so the stream is unchanged. An unknown fd
		// still reads (into Stdout's spare capacity, then drops the
		// bytes): the fault check comes before -EBADF.
		out := &m.Stdout
		if fd == 2 {
			out = &m.Stderr
		}
		old := len(*out)
		*out = slices.Grow(*out, n)[:old+n]
		if err := m.Mem.Read(buf, (*out)[old:]); err != nil {
			*out = (*out)[:old]
			return err
		}
		if fd != 1 && fd != 2 {
			*out = (*out)[:old]
			m.Regs[x86.RAX] = ^uint64(8) // -EBADF
			return nil
		}
		m.Regs[x86.RAX] = uint64(n)
	case sysExit:
		m.exited = true
		m.exitCode = int(uint8(m.Regs[x86.RDI]))
	default:
		return fmt.Errorf("emu: unsupported syscall %d", nr)
	}
	if m.Prof != nil {
		ret := m.Regs[x86.RAX]
		if nr == sysExit {
			ret = uint64(m.exitCode)
		}
		m.Prof.logSyscall(nr, ret)
	}
	// Hardware clobbers RCX and R11 on syscall.
	m.Regs[x86.RCX] = m.RIP
	m.Regs[x86.R11] = 0x202
	return nil
}
