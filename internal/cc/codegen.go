package cc

import (
	"fmt"
	"strconv"

	"repro/internal/asm"
	"repro/internal/mini"
	"repro/internal/x86"
)

// Argument registers in System V order.
var argRegs = [6]x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}

// gen lowers a module to an asm.Program.
type gen struct {
	cfg  Config
	mod  *mini.Module
	prog *asm.Program

	text   *asm.Section
	rodata *asm.Section
	relro  *asm.Section
	data   *asm.Section
	bss    *asm.Section

	// gexcept (.gcc_except_table) and tdata (.tdata) are created lazily
	// so binaries without exceptions or TLS keep their exact layout.
	gexcept *asm.Section
	tdata   *asm.Section

	labelN int

	// anchors are labels usable as composite-expression anchors: rodata
	// labels and mid-function code labels. Function entries are never
	// anchors — they carry endbr64, and a temporary pointer that targets
	// an endbr64 would be (correctly, per §3.4) treated as a code pointer.
	anchors   []string
	anchorIdx int
	accessN   int

	// current function state
	fn       *mini.Func
	slots    map[string]int64 // rbp-relative offsets of scalars
	arrInfo  map[string]arrayInfo
	frame    int64
	epilogue string

	funcRanges []string // names, in emission order, for .eh_frame

	// Exception-handling state. usesEH is true when any function
	// contains try/throw; the module then carries the __exc_* runtime
	// globals and the __throw routine. lsdaByFunc maps a function to the
	// "__lsda$<fn>" label at its first .gcc_except_table record, which
	// link threads into the FDE's LSDA pointer. tryBody counts lexically
	// enclosing try bodies (throw legality); tryAny additionally counts
	// catch blocks (return legality: returning out of an armed try would
	// leak the armed context).
	usesEH     bool
	lsdaByFunc map[string]string
	lsdaSiteN  int
	tryBody    int
	tryAny     int

	// TLS layout (x86-64 variant 2 local-exec): tlsOff maps each TLS
	// global to its negative thread-pointer-relative displacement;
	// tlsSize is the .tdata block size the offsets were computed against.
	tlsOff  map[string]int64
	tlsSize int64
}

type arrayInfo struct {
	off  int64 // array base is at [RBP - off]
	elem int
	n    int
}

func newGen(m *mini.Module, cfg Config) *gen {
	g := &gen{cfg: cfg, mod: m, prog: &asm.Program{}}
	g.text = g.prog.Section(".text", asm.Alloc|asm.Exec)
	g.rodata = g.prog.Section(".rodata", asm.Alloc)
	g.relro = g.prog.Section(".data.rel.ro", asm.Alloc|asm.Write)
	g.data = g.prog.Section(".data", asm.Alloc|asm.Write)
	g.bss = g.prog.Section(".bss", asm.Alloc|asm.Write|asm.Nobits)
	g.usesEH = moduleUsesEH(m)
	g.lsdaByFunc = make(map[string]string)
	g.layoutTLS()
	return g
}

// gexceptSec returns the .gcc_except_table section, creating it on first
// use. Its contents are LSDA records: a relocated landing-pad quad (the
// same S1 mechanism as vtables, so the rewriter's reloc retargeting moves
// pads organically) followed by a site-id quad.
func (g *gen) gexceptSec() *asm.Section {
	if g.gexcept == nil {
		g.gexcept = g.prog.Section(".gcc_except_table", asm.Alloc)
	}
	return g.gexcept
}

// tdataSec returns the .tdata section, creating it on first use.
func (g *gen) tdataSec() *asm.Section {
	if g.tdata == nil {
		g.tdata = g.prog.Section(".tdata", asm.Alloc|asm.Write)
	}
	return g.tdata
}

// layoutTLS assigns thread-pointer-relative displacements to TLS globals.
// Variant 2 places the block at [TP-size, TP), so each global's fs-segment
// displacement is its block offset minus the total block size.
func (g *gen) layoutTLS() {
	g.tlsOff = make(map[string]int64)
	cur := int64(0)
	for _, gl := range g.mod.Globals {
		if !gl.TLS {
			continue
		}
		cur = (cur + int64(gl.Elem) - 1) &^ (int64(gl.Elem) - 1)
		g.tlsOff[gl.Name] = cur
		cur += gl.ByteSize()
	}
	g.tlsSize = (cur + 7) &^ 7
	for name := range g.tlsOff {
		g.tlsOff[name] -= g.tlsSize
	}
}

// moduleUsesEH reports whether any function contains try or throw.
func moduleUsesEH(m *mini.Module) bool {
	var walk func(body []mini.Stmt) bool
	walk = func(body []mini.Stmt) bool {
		for _, s := range body {
			switch v := s.(type) {
			case mini.Try:
				return true
			case mini.Throw:
				return true
			case mini.If:
				if walk(v.Then) || walk(v.Else) {
					return true
				}
			case mini.While:
				if walk(v.Body) {
					return true
				}
			case mini.Switch:
				for _, c := range v.Cases {
					if walk(c.Body) {
						return true
					}
				}
				if walk(v.Default) {
					return true
				}
			}
		}
		return false
	}
	for _, f := range m.Funcs {
		if walk(f.Body) {
			return true
		}
	}
	return false
}

func (g *gen) label(prefix string) string {
	g.labelN++
	return "." + prefix + strconv.Itoa(g.labelN)
}

// t appends a plain instruction to .text.
func (g *gen) t(in x86.Inst) { g.text.I(in) }

// ts appends an instruction with a symbolic relative operand.
func (g *gen) ts(in x86.Inst, sym string, add int64) { g.text.IS(in, sym, add) }

// ripLea emits "lea dst, [RIP+sym]".
func (g *gen) ripLea(dst x86.Reg, sym string, add int64) {
	g.ts(x86.Inst{
		Op: x86.LEA, W: 8, Dst: dst.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(),
	}, sym, add)
}

// module lowers the whole module and returns the program, the ordered
// function names (for .eh_frame ranges: each name has a matching
// "<name>$end" label), and the per-function LSDA labels for functions
// containing try regions.
func (g *gen) module() (*asm.Program, []string, map[string]string, error) {
	// A stable rodata anchor for composite accesses, before any tables.
	g.rodata.L(".Lroanchor")
	g.rodata.D4(0x1a5e40) // opaque filler; never read
	g.anchors = append(g.anchors, ".Lroanchor")

	// Data-in-text islands are interleaved between functions, the way
	// -fwritable-literals / constant-island compilers place them.
	islands, err := g.intextGlobals()
	if err != nil {
		return nil, nil, nil, err
	}

	// GCC-style builds link the runtime (crt) ahead of user code; Clang
	// style places user code first. Either way _start remains the entry.
	emitUser := func() error {
		k := 0
		for _, f := range g.mod.Funcs {
			if err := g.function(f); err != nil {
				return err
			}
			if k < len(islands) {
				g.emitIsland(islands[k])
				k++
			}
		}
		for ; k < len(islands); k++ {
			g.emitIsland(islands[k])
		}
		return nil
	}
	if g.cfg.Compiler.IsGCC() {
		g.emitRuntime()
		if err := emitUser(); err != nil {
			return nil, nil, nil, err
		}
	} else {
		if err := emitUser(); err != nil {
			return nil, nil, nil, err
		}
		g.emitRuntime()
	}
	if g.usesEH {
		g.emitExcGlobals()
	}
	asanEntries, err := g.globals()
	if err != nil {
		return nil, nil, nil, err
	}
	if g.cfg.ASan {
		g.asanGlobalTable(asanEntries)
	}
	return g.prog, g.funcRanges, g.lsdaByFunc, nil
}

// intextGlobals validates and returns the module's data-in-text globals
// in declaration order.
func (g *gen) intextGlobals() ([]*mini.Global, error) {
	var out []*mini.Global
	for _, gl := range g.mod.Globals {
		if !gl.InText {
			continue
		}
		if !gl.ReadOnly {
			return nil, fmt.Errorf("in-text global %s must be read-only (.text is not writable)", gl.Name)
		}
		if gl.TLS || gl.FuncTable != nil || gl.PtrInit != nil {
			return nil, fmt.Errorf("in-text global %s cannot also be tls/table/pointer", gl.Name)
		}
		for _, v := range gl.Init {
			if v < 0 || v >= 0x80 {
				return nil, fmt.Errorf("in-text global %s: init value %d outside [0,0x80)", gl.Name, v)
			}
		}
		out = append(out, gl)
	}
	return out, nil
}

// emitIsland places a read-only global's bytes directly in .text between
// functions — the data-in-text pattern a sound reassembler must keep
// byte-identical (any "instruction" decoded from it is an artifact of the
// superset, never a real control-flow target).
func (g *gen) emitIsland(gl *mini.Global) {
	g.text.Align2(8)
	g.text.L(gl.Name)
	g.text.Raw(globalBytes(gl))
}

// emitExcGlobals lays out the exception runtime's context cells: the
// armed LSDA record address and the register snapshot the landing-pad
// transfer restores, plus the in-flight value.
func (g *gen) emitExcGlobals() {
	g.data.Align2(8)
	for _, name := range []string{"__exc_lsda", "__exc_rsp", "__exc_rbp", "__exc_val"} {
		g.data.L(name)
		g.data.Raw(make([]byte, 8))
	}
}

// globals lays out module globals into their sections. In sanitized
// builds, plain array globals get poisoned redzones on both sides and an
// entry in the sanitizer's global table.
func (g *gen) globals() ([]asanGlobalEntry, error) {
	var entries []asanGlobalEntry
	for _, gl := range g.mod.Globals {
		switch {
		case gl.InText:
			// Already emitted between functions; validated by intextGlobals.
		case gl.TLS:
			if gl.ReadOnly || gl.FuncTable != nil || gl.PtrInit != nil {
				return nil, fmt.Errorf("tls global %s cannot also be ro/table/pointer", gl.Name)
			}
			// Emission order must mirror layoutTLS so the fs displacements
			// line up with the .tdata image.
			td := g.tdataSec()
			td.Align2(uint64(gl.Elem))
			td.L(gl.Name)
			td.Raw(globalBytes(gl))
		case gl.FuncTable != nil:
			g.relro.Align2(8)
			g.relro.L(gl.Name)
			for _, fn := range gl.FuncTable {
				if g.mod.Func(fn) == nil {
					return nil, fmt.Errorf("function table %s references unknown %q", gl.Name, fn)
				}
				g.relro.Q(fn, 0)
			}
		case gl.PtrInit != nil:
			tgt := g.mod.Global(gl.PtrInit.Target)
			if tgt == nil {
				return nil, fmt.Errorf("pointer %s references unknown global %q", gl.Name, gl.PtrInit.Target)
			}
			if tgt.TLS {
				return nil, fmt.Errorf("pointer %s targets tls global %q (no link-time address)", gl.Name, gl.PtrInit.Target)
			}
			g.relro.Align2(8)
			g.relro.L(gl.Name)
			g.relro.Q(gl.PtrInit.Target, gl.PtrInit.ByteOff)
		case allZero(gl.Init):
			g.bss.Align2(uint64(gl.Elem))
			if g.cfg.ASan {
				g.bss.Skip(asanRedzone)
				entries = append(entries, asanGlobalEntry{name: gl.Name, size: paddedSize(gl)})
			}
			g.bss.L(gl.Name)
			g.bss.Skip(uint64(paddedSize(gl)))
			if g.cfg.ASan {
				g.bss.Skip(asanRedzone)
			}
		default:
			sec := g.data
			if gl.ReadOnly {
				sec = g.rodata
			}
			sec.Align2(uint64(gl.Elem))
			if g.cfg.ASan {
				sec.Raw(make([]byte, asanRedzone))
				entries = append(entries, asanGlobalEntry{name: gl.Name, size: paddedSize(gl)})
			}
			sec.L(gl.Name)
			buf := globalBytes(gl)
			if g.cfg.ASan {
				buf = append(buf, make([]byte, int(paddedSize(gl))-len(buf))...)
				buf = append(buf, make([]byte, asanRedzone)...)
			}
			sec.Raw(buf)
		}
	}
	// Pad .tdata to the 8-aligned block size layoutTLS computed the
	// displacements against; PT_TLS Memsz must match exactly.
	if g.tdata != nil {
		cur := int64(0)
		for _, gl := range g.mod.Globals {
			if !gl.TLS {
				continue
			}
			cur = (cur + int64(gl.Elem) - 1) &^ (int64(gl.Elem) - 1)
			cur += gl.ByteSize()
		}
		if pad := g.tlsSize - cur; pad > 0 {
			g.tdata.Raw(make([]byte, pad))
		}
	}
	return entries, nil
}

// paddedSize rounds a global's byte size up to the 8-byte shadow granule.
func paddedSize(gl *mini.Global) int64 {
	return (gl.ByteSize() + 7) &^ 7
}

func allZero(init []int64) bool {
	for _, v := range init {
		if v != 0 {
			return false
		}
	}
	return true
}

func globalBytes(gl *mini.Global) []byte {
	buf := make([]byte, gl.ByteSize())
	for i, v := range gl.Init {
		if i >= gl.Count {
			break
		}
		o := i * gl.Elem
		switch gl.Elem {
		case 1:
			buf[o] = byte(v)
		case 4:
			le.PutUint32(buf[o:], uint32(v))
		default:
			le.PutUint64(buf[o:], uint64(v))
		}
	}
	return buf
}

// function lowers one function.
func (g *gen) function(f *mini.Func) error {
	g.fn = f
	g.slots = make(map[string]int64)
	g.arrInfo = make(map[string]arrayInfo)
	g.epilogue = g.label("Lepi")

	// Frame layout: scalars first, arrays after.
	off := int64(0)
	addSlot := func(name string) error {
		if _, dup := g.slots[name]; dup {
			return fmt.Errorf("%s: duplicate variable %q", f.Name, name)
		}
		off += 8
		g.slots[name] = off
		return nil
	}
	for i := 0; i < f.NParams; i++ {
		if err := addSlot("p" + strconv.Itoa(i)); err != nil {
			return err
		}
	}
	for _, l := range f.Locals {
		if err := addSlot(l); err != nil {
			return err
		}
	}
	redzone := int64(0)
	if g.cfg.ASan {
		redzone = asanRedzone
	}
	for _, a := range f.Arrays {
		size := (int64(a.Elem)*int64(a.Count) + 7) &^ 7
		off += size + 2*redzone
		g.arrInfo[a.Name] = arrayInfo{off: off - redzone, elem: a.Elem, n: a.Count}
	}
	g.frame = (off + 15) &^ 15

	g.text.Align2(g.cfg.funcAlign())
	g.text.L(f.Name)
	g.funcRanges = append(g.funcRanges, f.Name)
	if g.cfg.CET {
		g.t(x86.Inst{Op: x86.ENDBR64})
	}
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RBP.Arg(), Src: x86.RSP.Arg()})
	if g.frame > 0 {
		g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RSP.Arg(), Src: x86.Imm(g.frame).Arg()})
	}
	// Spill parameters. Clang13 spills in reverse order.
	spillOrder := make([]int, f.NParams)
	for i := range spillOrder {
		spillOrder[i] = i
	}
	if g.cfg.Compiler == Clang13 {
		for i, j := 0, len(spillOrder)-1; i < j; i, j = i+1, j-1 {
			spillOrder[i], spillOrder[j] = spillOrder[j], spillOrder[i]
		}
	}
	for _, i := range spillOrder {
		if i >= len(argRegs) {
			return fmt.Errorf("%s: too many parameters", f.Name)
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: g.slot("p" + strconv.Itoa(i)).Arg(), Src: argRegs[i].Arg()})
	}
	// MiniC locals and stack arrays are zero-initialized (the language
	// gives them static-storage semantics); lower that explicitly.
	for _, l := range f.Locals {
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: g.slot(l).Arg(), Src: x86.Imm(0).Arg()})
	}
	for _, a := range f.Arrays {
		g.zeroArray(g.arrInfo[a.Name], a)
	}
	if g.cfg.ASan && len(f.Arrays) > 0 {
		g.asanPoisonFrame(f)
	}

	// A mid-function anchor: a real instruction location inside the body,
	// never an endbr64 (Figure 2's temporary-pointer target).
	mid := ".Lmid$" + f.Name

	if err := g.stmts(f.Body); err != nil {
		return err
	}

	// Fall-off-the-end returns 0.
	g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.text.L(mid)
	g.anchors = append(g.anchors, mid)
	g.text.L(g.epilogue)
	if g.cfg.ASan && len(f.Arrays) > 0 {
		g.asanUnpoisonFrame(f)
	}
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RSP.Arg(), Src: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.RBP.Arg()})
	g.t(x86.Inst{Op: x86.RET})
	g.text.L(f.Name + "$end")
	return nil
}

// slot returns the memory operand of a scalar variable.
func (g *gen) slot(name string) x86.Mem {
	off := g.slots[name]
	return x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(-off)}
}

func (g *gen) stmts(body []mini.Stmt) error {
	for _, s := range body {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s mini.Stmt) error {
	switch v := s.(type) {
	case mini.Assign:
		if _, ok := g.slots[v.Name]; !ok {
			return fmt.Errorf("%s: assign to undefined %q", g.fn.Name, v.Name)
		}
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: g.slot(v.Name).Arg(), Src: x86.RAX.Arg()})
		return nil

	case mini.StoreG:
		gl := g.mod.Global(v.G)
		if gl == nil {
			return fmt.Errorf("%s: unknown global %q", g.fn.Name, v.G)
		}
		if gl.InText {
			return fmt.Errorf("%s: store to read-only in-text global %q", g.fn.Name, v.G)
		}
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.POP, Dst: x86.RCX.Arg()})
		if gl.TLS {
			g.tlsAccess(storeInst, gl, x86.RCX, x86.RDX)
			return nil
		}
		p := g.globalBase(x86.RDX, v.G) // RDX = &g (or a composite anchor)
		g.asanCheckIndexed(x86.RDX, x86.RCX, gl.Elem)
		g.access(storeInst(x86.Mem{Base: x86.RDX, Index: x86.RCX, Scale: uint8(gl.Elem)}, gl.Elem), p)
		return nil

	case mini.StoreL:
		info, ok := g.arrInfo[v.Arr]
		if !ok {
			return fmt.Errorf("%s: unknown array %q", g.fn.Name, v.Arr)
		}
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.POP, Dst: x86.RCX.Arg()})
		g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RDX.Arg(),
			Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(-info.off)}.Arg()})
		g.asanCheckIndexed(x86.RDX, x86.RCX, info.elem)
		g.t(storeInst(x86.Mem{Base: x86.RDX, Index: x86.RCX, Scale: uint8(info.elem)}, info.elem))
		return nil

	case mini.StoreP:
		gl := g.mod.Global(v.P)
		if gl == nil || gl.PtrInit == nil {
			return fmt.Errorf("%s: %q is not a pointer global", g.fn.Name, v.P)
		}
		tgt := g.mod.Global(gl.PtrInit.Target)
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.POP, Dst: x86.RCX.Arg()})
		// Load the pointer value (S1-relocated quad), then index by the
		// target's element size.
		g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(),
			Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, v.P, 0)
		g.asanCheckIndexed(x86.RDX, x86.RCX, tgt.Elem)
		g.t(storeInst(x86.Mem{Base: x86.RDX, Index: x86.RCX, Scale: uint8(tgt.Elem)}, tgt.Elem))
		return nil

	case mini.If:
		if g.tryCmov(v) {
			return nil
		}
		elseL := g.label("Lelse")
		endL := g.label("Lend")
		if err := g.cond(v.Cond, elseL); err != nil {
			return err
		}
		if err := g.stmts(v.Then); err != nil {
			return err
		}
		if len(v.Else) > 0 {
			g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, endL, 0)
			g.text.L(elseL)
			if err := g.stmts(v.Else); err != nil {
				return err
			}
			g.text.L(endL)
		} else {
			g.text.L(elseL)
		}
		return nil

	case mini.While:
		headL := g.label("Lhead")
		exitL := g.label("Lexit")
		g.text.L(headL)
		if err := g.cond(v.Cond, exitL); err != nil {
			return err
		}
		if err := g.stmts(v.Body); err != nil {
			return err
		}
		g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, headL, 0)
		g.text.L(exitL)
		return nil

	case mini.Switch:
		return g.switchStmt(v)

	case mini.Return:
		if g.tryAny > 0 {
			// Returning out of an armed try would leave __exc_* pointing
			// into a dead frame; the language forbids it.
			return fmt.Errorf("%s: return inside try/catch", g.fn.Name)
		}
		if v.E != nil {
			if err := g.expr(v.E); err != nil {
				return err
			}
		} else {
			g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
		}
		g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, g.epilogue, 0)
		return nil

	case mini.Try:
		return g.tryStmt(v)

	case mini.Throw:
		if g.tryBody == 0 {
			// Throws are same-function by construction: the landing-pad
			// transfer never pops the shadow stack, so crossing a call
			// frame would trip CET on the next return.
			return fmt.Errorf("%s: throw outside try body", g.fn.Name)
		}
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()})
		// A direct jmp, not a call: __throw transfers to the landing pad
		// without growing the shadow stack.
		g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, "__throw", 0)
		return nil

	case mini.Print:
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()})
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "print_i64", 0)
		return nil

	case mini.PrintChar:
		if err := g.expr(v.E); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDI.Arg(), Src: x86.RAX.Arg()})
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "print_char", 0)
		return nil

	case mini.ExprStmt:
		return g.expr(v.E)
	}
	return fmt.Errorf("%s: unknown statement %T", g.fn.Name, s)
}

// tryStmt lowers a try/catch region the way C++ zero-cost EH looks on
// disk: an LSDA record in .gcc_except_table whose first quad is the
// relocated landing-pad address, referenced from the armed context. The
// dynamic protocol is SJLJ-shaped (context cells in .data, restored by
// __throw), but the artifact the rewriter must handle is identical to
// GCC's: an absolute code pointer in an exception table that has to move
// with the pad (Table 1's landing-pad cells).
func (g *gen) tryStmt(v mini.Try) error {
	if _, ok := g.slots[v.CatchVar]; !ok {
		return fmt.Errorf("%s: catch variable %q not declared", g.fn.Name, v.CatchVar)
	}
	padL := g.label("Lpad")
	endL := g.label("Ltrydone")
	lsdaL := g.label("Llsda")

	// LSDA record: [pad quad (relocated), site id]. The function's first
	// record also carries the "__lsda$<fn>" label the FDE points at.
	ge := g.gexceptSec()
	ge.Align2(8)
	if _, ok := g.lsdaByFunc[g.fn.Name]; !ok {
		lbl := "__lsda$" + g.fn.Name
		ge.L(lbl)
		g.lsdaByFunc[g.fn.Name] = lbl
	}
	ge.L(lsdaL)
	ge.Q(padL, 0)
	g.lsdaSiteN++
	ge.D8(uint64(g.lsdaSiteN))

	// Save the outer context, then arm this region.
	for _, cell := range []string{"__exc_lsda", "__exc_rsp", "__exc_rbp"} {
		g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
			Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, cell, 0)
		g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
	}
	g.ripLea(x86.RAX, lsdaL, 0)
	g.ts(x86.Inst{Op: x86.MOV, W: 8,
		Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(), Src: x86.RAX.Arg()}, "__exc_lsda", 0)
	g.ts(x86.Inst{Op: x86.MOV, W: 8,
		Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(), Src: x86.RSP.Arg()}, "__exc_rsp", 0)
	g.ts(x86.Inst{Op: x86.MOV, W: 8,
		Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(), Src: x86.RBP.Arg()}, "__exc_rbp", 0)

	g.tryBody++
	g.tryAny++
	err := g.stmts(v.Body)
	g.tryBody--
	if err != nil {
		g.tryAny--
		return err
	}
	g.emitExcRestore()
	g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, endL, 0)

	// Landing pad: __throw re-enters here (indirect jmp through the LSDA
	// quad) with RSP/RBP already restored to the armed snapshot.
	g.text.L(padL)
	if g.cfg.CET {
		g.t(x86.Inst{Op: x86.ENDBR64})
	}
	g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(),
		Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, "__exc_val", 0)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: g.slot(v.CatchVar).Arg(), Src: x86.RAX.Arg()})
	g.emitExcRestore()
	err = g.stmts(v.Catch)
	g.tryAny--
	if err != nil {
		return err
	}
	g.text.L(endL)
	return nil
}

// emitExcRestore pops the saved outer exception context (reverse of the
// pushes in tryStmt) back into the __exc_* cells.
func (g *gen) emitExcRestore() {
	for _, cell := range []string{"__exc_rbp", "__exc_rsp", "__exc_lsda"} {
		g.t(x86.Inst{Op: x86.POP, Dst: x86.RAX.Arg()})
		g.ts(x86.Inst{Op: x86.MOV, W: 8,
			Dst: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg(), Src: x86.RAX.Arg()}, cell, 0)
	}
}

// tryCmov lowers "if (a OP b) { x = p } else { x = q }" with trivial
// operands to a branchless cmov sequence — the idiom Clang prefers at
// -O2 and above. Returns false when the pattern does not apply.
func (g *gen) tryCmov(v mini.If) bool {
	if g.cfg.Compiler.IsGCC() || !g.cfg.compositeAccess() {
		return false
	}
	if len(v.Then) != 1 || len(v.Else) != 1 {
		return false
	}
	thenA, ok1 := v.Then[0].(mini.Assign)
	elseA, ok2 := v.Else[0].(mini.Assign)
	if !ok1 || !ok2 || thenA.Name != elseA.Name {
		return false
	}
	if _, declared := g.slots[thenA.Name]; !declared {
		return false
	}
	cond, ok := v.Cond.(mini.Bin)
	if !ok {
		return false
	}
	cc, isCmp := cmpCond(cond.Op)
	if !isCmp || !g.trivial(cond.L) || !g.trivial(cond.R) ||
		!g.trivial(thenA.E) || !g.trivial(elseA.E) {
		return false
	}
	// cmp leaves flags; the trivial loads below do not disturb them.
	g.loadTrivial(x86.RAX, cond.L)
	g.loadTrivial(x86.RDX, cond.R)
	g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	g.loadTrivial(x86.R10, elseA.E)
	g.loadTrivial(x86.R11, thenA.E)
	g.t(x86.Inst{Op: x86.CMOVCC, Cond: cc, W: 8, Dst: x86.R10.Arg(), Src: x86.R11.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: g.slot(thenA.Name).Arg(), Src: x86.R10.Arg()})
	return true
}

// trivial reports whether evaluating e cannot clobber flags via loadTrivial.
func (g *gen) trivial(e mini.Expr) bool {
	switch v := e.(type) {
	case mini.Const:
		return true
	case mini.Var:
		_, ok := g.slots[string(v)]
		return ok
	}
	return false
}

// loadTrivial materializes a trivial expression without touching flags.
func (g *gen) loadTrivial(dst x86.Reg, e mini.Expr) {
	switch v := e.(type) {
	case mini.Const:
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: dst.Arg(), Src: x86.Imm(int64(v)).Arg()})
	case mini.Var:
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: dst.Arg(), Src: g.slot(string(v)).Arg()})
	}
}

// cond evaluates a condition and jumps to falseL when it is zero. Simple
// comparisons fuse cmp+jcc instead of materializing a 0/1 value.
func (g *gen) cond(e mini.Expr, falseL string) error {
	if b, ok := e.(mini.Bin); ok && g.cfg.Opt != O0 {
		if cc, isCmp := cmpCond(b.Op); isCmp {
			if err := g.binOperands(b); err != nil {
				return err
			}
			// RAX = L, RDX = R.
			g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
			g.ts(x86.Inst{Op: x86.JCC, Cond: cc.Negate(), Src: x86.Rel(0).Arg()}, falseL, 0)
			return nil
		}
	}
	if err := g.expr(e); err != nil {
		return err
	}
	g.t(x86.Inst{Op: x86.TEST, W: 8, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, falseL, 0)
	return nil
}

func cmpCond(op mini.BinOp) (x86.Cond, bool) {
	switch op {
	case mini.Eq:
		return x86.CondE, true
	case mini.Ne:
		return x86.CondNE, true
	case mini.Lt:
		return x86.CondL, true
	case mini.Le:
		return x86.CondLE, true
	case mini.Gt:
		return x86.CondG, true
	case mini.Ge:
		return x86.CondGE, true
	}
	return 0, false
}

// tlsAccess emits one load/store of TLS global gl with the unscaled
// index in idxReg. -O0 builds use the glibc TCB idiom — load the thread
// pointer from fs:[0], then an ordinary base+index access through
// scratch — while optimized builds fold the segment override into the
// access itself (fs:[idx*elem + tpoff]). Both address the variant-2
// block below the thread pointer, so the displacement is negative.
// ASan redzones are not modeled for TLS (matching compilers, which
// leave TLS blocks unpoisoned without a special runtime).
func (g *gen) tlsAccess(mk func(x86.Mem, int) x86.Inst, gl *mini.Global, idxReg, scratch x86.Reg) {
	off := g.tlsOff[gl.Name]
	if g.cfg.Opt == O0 {
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: scratch.Arg(),
			Src: x86.Mem{FS: true, Base: x86.NoReg, Index: x86.NoReg}.Arg()})
		g.t(mk(x86.Mem{Base: scratch, Index: idxReg, Scale: uint8(gl.Elem), Disp: int32(off)}, gl.Elem))
		return
	}
	g.t(mk(x86.Mem{FS: true, Base: x86.NoReg, Index: idxReg, Scale: uint8(gl.Elem), Disp: int32(off)}, gl.Elem))
}

// pend carries a deferred composite displacement from globalBase to the
// access instruction that consumes the base register.
type pend struct {
	plus, minus string
}

// globalBase loads the address of a global into dst. At higher
// optimization levels every third access is emitted in the composite
// anchor form of §2.6.1: "lea dst, [RIP+anchor]" followed by an access at
// "[dst + (global-anchor)]" — a temporary pointer that points at an
// unrelated location (mid-function code or another section, as in
// Figures 1 and 2). The returned pend must be passed to access for the
// instruction that dereferences dst.
func (g *gen) globalBase(dst x86.Reg, name string) pend {
	g.accessN++
	// Composite anchors arise for far .bss references (Figure 2's var
	// lives in .bss); other sections are addressed directly. This makes
	// the trap program-dependent, as in real compiler output.
	gl := g.mod.Global(name)
	isBss := gl != nil && gl.FuncTable == nil && gl.PtrInit == nil &&
		!gl.TLS && !gl.InText && allZero(gl.Init)
	if g.cfg.compositeAccess() && !g.cfg.ASan && isBss && len(g.anchors) > 0 && g.accessN%3 != 0 {
		anchor := g.anchors[g.anchorIdx%len(g.anchors)]
		g.anchorIdx++
		g.ripLea(dst, anchor, 0)
		return pend{plus: name, minus: anchor}
	}
	g.ripLea(dst, name, 0)
	return pend{}
}

// access emits a memory-access instruction, folding a pending composite
// displacement into its operand when present.
func (g *gen) access(in x86.Inst, p pend) {
	if p.plus != "" {
		g.text.IDiff(in, p.plus, p.minus)
		return
	}
	g.t(in)
}

func storeInst(m x86.Mem, elem int) x86.Inst {
	return x86.Inst{Op: x86.MOV, W: uint8(elem), Dst: m.Arg(), Src: x86.RAX.Arg()}
}

// loadInst loads an element into RAX with C-like extension semantics:
// bytes zero-extend (uint8_t), 32-bit values sign-extend (int32_t).
func loadInst(m x86.Mem, elem int) x86.Inst {
	switch elem {
	case 1:
		return x86.Inst{Op: x86.MOVZX, W: 8, SrcW: 1, Dst: x86.RAX.Arg(), Src: m.Arg()}
	case 4:
		return x86.Inst{Op: x86.MOVSXD, W: 8, SrcW: 4, Dst: x86.RAX.Arg(), Src: m.Arg()}
	default:
		return x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: m.Arg()}
	}
}

// zeroArray clears a stack array's storage at function entry. Small
// arrays unroll into direct stores; larger ones use a store loop.
func (g *gen) zeroArray(info arrayInfo, a mini.LocalArray) {
	size := (int64(a.Elem)*int64(a.Count) + 7) &^ 7
	if size <= 128 {
		for o := int64(0); o < size; o += 8 {
			g.t(x86.Inst{Op: x86.MOV, W: 8,
				Dst: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(o - info.off)}.Arg(),
				Src: x86.Imm(0).Arg()})
		}
		return
	}
	loop := g.label("Lzero")
	g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RDI.Arg(),
		Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(-info.off)}.Arg()})
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(size / 8).Arg()})
	g.text.L(loop)
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.Mem{Base: x86.RDI, Index: x86.NoReg}.Arg(), Src: x86.Imm(0).Arg()})
	g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RDI.Arg(), Src: x86.Imm(8).Arg()})
	g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RCX.Arg(), Src: x86.Imm(1).Arg()})
	g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Src: x86.Rel(0).Arg()}, loop, 0)
}
