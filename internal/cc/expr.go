package cc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mini"
	"repro/internal/x86"
)

var le = binary.LittleEndian

// expr evaluates an expression into RAX. Intermediate values live on the
// machine stack, so calls inside expressions are safe.
func (g *gen) expr(e mini.Expr) error {
	switch v := e.(type) {
	case mini.Const:
		if v == 0 && g.cfg.Opt != O0 {
			g.t(x86.Inst{Op: x86.XOR, W: 4, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
			return nil
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(v).Arg()})
		return nil

	case mini.Var:
		if _, ok := g.slots[string(v)]; !ok {
			return fmt.Errorf("%s: undefined variable %q", g.fn.Name, v)
		}
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: g.slot(string(v)).Arg()})
		return nil

	case mini.LoadG:
		gl := g.mod.Global(v.G)
		if gl == nil {
			return fmt.Errorf("%s: unknown global %q", g.fn.Name, v.G)
		}
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		if gl.TLS {
			g.tlsAccess(loadInst, gl, x86.RAX, x86.RCX)
			return nil
		}
		p := g.globalBase(x86.RCX, v.G)
		g.asanCheckIndexed(x86.RCX, x86.RAX, gl.Elem)
		g.access(loadInst(x86.Mem{Base: x86.RCX, Index: x86.RAX, Scale: uint8(gl.Elem)}, gl.Elem), p)
		return nil

	case mini.LoadL:
		info, ok := g.arrInfo[v.Arr]
		if !ok {
			return fmt.Errorf("%s: unknown array %q", g.fn.Name, v.Arr)
		}
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.LEA, W: 8, Dst: x86.RCX.Arg(),
			Src: x86.Mem{Base: x86.RBP, Index: x86.NoReg, Disp: int32(-info.off)}.Arg()})
		g.asanCheckIndexed(x86.RCX, x86.RAX, info.elem)
		g.t(loadInst(x86.Mem{Base: x86.RCX, Index: x86.RAX, Scale: uint8(info.elem)}, info.elem))
		return nil

	case mini.LoadP:
		gl := g.mod.Global(v.P)
		if gl == nil || gl.PtrInit == nil {
			return fmt.Errorf("%s: %q is not a pointer global", g.fn.Name, v.P)
		}
		tgt := g.mod.Global(gl.PtrInit.Target)
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(),
			Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, v.P, 0)
		g.asanCheckIndexed(x86.RCX, x86.RAX, tgt.Elem)
		g.t(loadInst(x86.Mem{Base: x86.RCX, Index: x86.RAX, Scale: uint8(tgt.Elem)}, tgt.Elem))
		return nil

	case mini.Bin:
		return g.binExpr(v)

	case mini.Call:
		callee := g.mod.Func(v.Name)
		if callee == nil {
			return fmt.Errorf("%s: unknown function %q", g.fn.Name, v.Name)
		}
		if len(v.Args) > len(argRegs) {
			return fmt.Errorf("%s: too many arguments to %s", g.fn.Name, v.Name)
		}
		for _, a := range v.Args {
			if err := g.expr(a); err != nil {
				return err
			}
			g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		}
		for i := len(v.Args) - 1; i >= 0; i-- {
			g.t(x86.Inst{Op: x86.POP, Dst: argRegs[i].Arg()})
		}
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, v.Name, 0)
		return nil

	case mini.CallPtr:
		gl := g.mod.Global(v.Table)
		if gl == nil || gl.FuncTable == nil {
			return fmt.Errorf("%s: %q is not a function table", g.fn.Name, v.Table)
		}
		if len(v.Args) > len(argRegs) {
			return fmt.Errorf("%s: too many arguments through %s", g.fn.Name, v.Table)
		}
		if err := g.expr(v.Idx); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		for _, a := range v.Args {
			if err := g.expr(a); err != nil {
				return err
			}
			g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		}
		for i := len(v.Args) - 1; i >= 0; i-- {
			g.t(x86.Inst{Op: x86.POP, Dst: argRegs[i].Arg()})
		}
		g.t(x86.Inst{Op: x86.POP, Dst: x86.RAX.Arg()})
		// R10 = table[idx]; the table lives in .data.rel.ro with relocated
		// entries, so the load yields a runtime code pointer (S1).
		g.ripLea(x86.R10, v.Table, 0)
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R10, Index: x86.RAX, Scale: 8}.Arg()})
		g.t(x86.Inst{Op: x86.CALL, Src: x86.R10.Arg()})
		return nil

	case mini.CallVirt:
		gl := g.mod.Global(v.Obj)
		if gl == nil || gl.PtrInit == nil {
			return fmt.Errorf("%s: %q is not an object (pointer global)", g.fn.Name, v.Obj)
		}
		vt := g.mod.Global(gl.PtrInit.Target)
		if vt == nil || vt.FuncTable == nil {
			return fmt.Errorf("%s: %q does not point at a vtable", g.fn.Name, v.Obj)
		}
		if v.Idx < 0 || gl.PtrInit.ByteOff%8 != 0 ||
			int64(v.Idx)+gl.PtrInit.ByteOff/8 >= int64(len(vt.FuncTable)) {
			return fmt.Errorf("%s: virtual slot %d out of range for %q", g.fn.Name, v.Idx, v.Obj)
		}
		if len(v.Args) > len(argRegs) {
			return fmt.Errorf("%s: too many arguments through %s", g.fn.Name, v.Obj)
		}
		for _, a := range v.Args {
			if err := g.expr(a); err != nil {
				return err
			}
			g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		}
		for i := len(v.Args) - 1; i >= 0; i-- {
			g.t(x86.Inst{Op: x86.POP, Dst: argRegs[i].Arg()})
		}
		// C++ virtual dispatch shape: load the object's vptr (an
		// S2-relocated quad that may point into the middle of the vtable
		// when ByteOff != 0), then the slot, then call through it.
		g.ts(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.NoReg, Index: x86.NoReg, Rip: true}.Arg()}, v.Obj, 0)
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.R10.Arg(),
			Src: x86.Mem{Base: x86.R10, Index: x86.NoReg, Disp: int32(8 * v.Idx)}.Arg()})
		g.t(x86.Inst{Op: x86.CALL, Src: x86.R10.Arg()})
		return nil

	case mini.FuncRef:
		if g.mod.Func(v.Name) == nil {
			return fmt.Errorf("%s: unknown function %q", g.fn.Name, v.Name)
		}
		// S6 code pointer: lea RAX, [RIP+func].
		g.ripLea(x86.RAX, v.Name, 0)
		return nil

	case mini.CallVal:
		if len(v.Args) > len(argRegs) {
			return fmt.Errorf("%s: too many arguments in indirect call", g.fn.Name)
		}
		if err := g.expr(v.F); err != nil {
			return err
		}
		g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		for _, a := range v.Args {
			if err := g.expr(a); err != nil {
				return err
			}
			g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
		}
		for i := len(v.Args) - 1; i >= 0; i-- {
			g.t(x86.Inst{Op: x86.POP, Dst: argRegs[i].Arg()})
		}
		g.t(x86.Inst{Op: x86.POP, Dst: x86.R10.Arg()})
		g.t(x86.Inst{Op: x86.CALL, Src: x86.R10.Arg()})
		return nil

	case mini.ReadInput:
		g.ts(x86.Inst{Op: x86.CALL, Src: x86.Rel(0).Arg()}, "read_i64", 0)
		return nil
	}
	return fmt.Errorf("%s: unknown expression %T", g.fn.Name, e)
}

// binOperands evaluates both operands: L into RAX, R into RDX.
func (g *gen) binOperands(b mini.Bin) error {
	if err := g.expr(b.L); err != nil {
		return err
	}
	g.t(x86.Inst{Op: x86.PUSH, Src: x86.RAX.Arg()})
	if err := g.expr(b.R); err != nil {
		return err
	}
	g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RDX.Arg(), Src: x86.RAX.Arg()})
	g.t(x86.Inst{Op: x86.POP, Dst: x86.RAX.Arg()})
	return nil
}

func (g *gen) binExpr(b mini.Bin) error {
	// Constant folding at -O1 and above.
	if g.cfg.Opt != O0 {
		if l, lok := b.L.(mini.Const); lok {
			if r, rok := b.R.(mini.Const); rok {
				if v, ok := mini.FoldBin(b.Op, int64(l), int64(r)); ok {
					return g.expr(mini.Const(v))
				}
			}
		}
		// Strength reduction: multiply by a power of two.
		if g.cfg.Opt != O1 && b.Op == mini.Mul {
			if r, ok := b.R.(mini.Const); ok && r > 0 && r&(r-1) == 0 {
				if err := g.expr(b.L); err != nil {
					return err
				}
				sh := 0
				for v := int64(r); v > 1; v >>= 1 {
					sh++
				}
				if sh > 0 {
					g.t(x86.Inst{Op: x86.SHL, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(int64(sh)).Arg()})
				}
				return nil
			}
		}
	}

	if err := g.binOperands(b); err != nil {
		return err
	}
	switch b.Op {
	case mini.Add:
		g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	case mini.Sub:
		g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	case mini.Mul:
		g.t(x86.Inst{Op: x86.IMUL, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	case mini.And:
		g.t(x86.Inst{Op: x86.AND, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	case mini.Or:
		g.t(x86.Inst{Op: x86.OR, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	case mini.Xor:
		g.t(x86.Inst{Op: x86.XOR, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
	case mini.Div, mini.Mod:
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.RDX.Arg()})
		g.t(x86.Inst{Op: x86.CQO, W: 8})
		g.t(x86.Inst{Op: x86.IDIV, W: 8, Dst: x86.RCX.Arg()})
		if b.Op == mini.Mod {
			g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
		}
	case mini.Shl, mini.Shr:
		g.t(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.RCX.Arg(), Src: x86.RDX.Arg()})
		op := x86.SHL
		if b.Op == mini.Shr {
			op = x86.SAR // MiniC shifts are arithmetic
		}
		g.t(x86.Inst{Op: op, W: 8, Dst: x86.RAX.Arg(), Src: x86.RCX.Arg()})
	default:
		cc, ok := cmpCond(b.Op)
		if !ok {
			return fmt.Errorf("%s: unknown operator %d", g.fn.Name, b.Op)
		}
		g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.RDX.Arg()})
		g.t(x86.Inst{Op: x86.SETCC, Cond: cc, W: 1, Dst: x86.RAX.Arg()})
		g.t(x86.Inst{Op: x86.MOVZX, W: 8, SrcW: 1, Dst: x86.RAX.Arg(), Src: x86.RAX.Arg()})
	}
	return nil
}

// switchStmt lowers a switch: an if-else chain below the jump-table
// threshold, otherwise the jump-table idiom of Figure 3 (movsxd from a
// table of .long label-label entries followed by notrack jmp). Complete
// switches omit the bounds check — the boundary-inference trap of §2.6.2.
func (g *gen) switchStmt(v mini.Switch) error {
	endL := g.label("Lswend")
	defL := g.label("Lswdef")

	if err := g.expr(v.E); err != nil {
		return err
	}

	useTable, min, span := g.tableShape(v)
	caseLabels := make([]string, len(v.Cases))
	for i := range v.Cases {
		caseLabels[i] = g.label("Lcase")
	}

	if useTable {
		if min != 0 {
			g.t(x86.Inst{Op: x86.SUB, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(min).Arg()})
		}
		if !v.Complete {
			g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(span - 1).Arg()})
			g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondA, Src: x86.Rel(0).Arg()}, defL, 0)
		}
		jt := g.label("LJT")
		base, tgt := x86.RDX, x86.RAX // gcc register choice
		if !g.cfg.Compiler.IsGCC() {
			base, tgt = x86.RCX, x86.RDX
		}
		g.ripLea(base, jt, 0)
		g.t(x86.Inst{Op: x86.MOVSXD, W: 8, SrcW: 4, Dst: tgt.Arg(),
			Src: x86.Mem{Base: base, Index: x86.RAX, Scale: 4}.Arg()})
		g.t(x86.Inst{Op: x86.ADD, W: 8, Dst: tgt.Arg(), Src: base.Arg()})
		g.t(x86.Inst{Op: x86.JMP, Src: tgt.Arg(), NoTrack: true})

		// Emit the table into .rodata: one slot per value in [min, min+span).
		slotFor := make(map[int64]string)
		for i, c := range v.Cases {
			slotFor[c.Val] = caseLabels[i]
		}
		g.rodata.Align2(g.cfg.jumpTableAlign())
		g.rodata.L(jt)
		for s := int64(0); s < span; s++ {
			lbl, ok := slotFor[min+s]
			if !ok {
				lbl = defL
			}
			g.rodata.Diff(lbl, jt, 0)
		}
	} else {
		for i, c := range v.Cases {
			g.t(x86.Inst{Op: x86.CMP, W: 8, Dst: x86.RAX.Arg(), Src: x86.Imm(c.Val).Arg()})
			g.ts(x86.Inst{Op: x86.JCC, Cond: x86.CondE, Src: x86.Rel(0).Arg()}, caseLabels[i], 0)
		}
		g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, defL, 0)
	}

	for i, c := range v.Cases {
		g.text.L(caseLabels[i])
		if err := g.stmts(c.Body); err != nil {
			return err
		}
		g.ts(x86.Inst{Op: x86.JMP, Src: x86.Rel(0).Arg()}, endL, 0)
	}
	g.text.L(defL)
	if err := g.stmts(v.Default); err != nil {
		return err
	}
	g.text.L(endL)
	return nil
}

// tableShape decides whether a switch compiles to a jump table and, if
// so, its normalized range.
func (g *gen) tableShape(v mini.Switch) (useTable bool, min, span int64) {
	if len(v.Cases) == 0 {
		return false, 0, 0
	}
	min, max := v.Cases[0].Val, v.Cases[0].Val
	seen := make(map[int64]bool)
	for _, c := range v.Cases {
		if seen[c.Val] {
			return false, 0, 0 // duplicate values: chain
		}
		seen[c.Val] = true
		if c.Val < min {
			min = c.Val
		}
		if c.Val > max {
			max = c.Val
		}
	}
	span = max - min + 1
	if len(v.Cases) < g.cfg.jumpTableThreshold() {
		return false, 0, 0
	}
	if span > 3*int64(len(v.Cases)) || span > 1024 {
		return false, 0, 0 // too sparse
	}
	return true, min, span
}
