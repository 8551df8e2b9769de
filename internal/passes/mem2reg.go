package passes

import (
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Mem2Reg promotes non-escaping scalar allocas (single-word stack slots
// whose address is used only as a direct load/store pointer) to SSA
// registers, inserting phi nodes at iterated dominance frontiers — the
// classic SSA-construction pass. The MiniC front end spills every local to
// an alloca like clang -O0; running Mem2Reg afterwards produces the
// register-resident IR that LLVM-based SID studies operate on.
type Mem2Reg struct{}

// Name implements Pass.
func (Mem2Reg) Name() string { return "mem2reg" }

// Run implements Pass.
func (Mem2Reg) Run(m *ir.Module) (bool, error) {
	changed := false
	for _, f := range m.Funcs {
		if promoteFunction(f) {
			changed = true
		}
	}
	return changed, nil
}

// promotedVar is one alloca chosen for promotion.
type promotedVar struct {
	allocaDst int     // the alloca's pointer register
	elem      ir.Type // the slot's value type
	phis      map[int]*ir.Instr
}

// promoteFunction runs SSA construction over f. Reports whether anything
// changed.
func promoteFunction(f *ir.Function) bool {
	cands := findPromotable(f)
	if len(cands) == 0 {
		return false
	}
	cfg := analysis.BuildCFG(f)
	dom := analysis.BuildDom(cfg)

	// Place phis at iterated dominance frontiers of the store blocks.
	vars := make([]*promotedVar, 0, len(cands))
	varOf := make(map[int]*promotedVar) // allocaDst -> var
	for _, pv := range cands {
		pv.phis = make(map[int]*ir.Instr)
		defBlocks := map[int]bool{}
		for bi, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore && isPtrTo(in.Args[1], pv.allocaDst) {
					defBlocks[bi] = true
				}
			}
		}
		work := keysOf(defBlocks)
		onFrontier := map[int]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range dom.Frontier[b] {
				if onFrontier[d] {
					continue
				}
				onFrontier[d] = true
				phi := &ir.Instr{
					Op:      ir.OpPhi,
					Type:    pv.elem,
					Dst:     f.NumRegs,
					Comment: "mem2reg",
				}
				f.NumRegs++
				pv.phis[d] = phi
				if !defBlocks[d] {
					defBlocks[d] = true
					work = append(work, d)
				}
			}
		}
		vars = append(vars, pv)
		varOf[pv.allocaDst] = pv
	}

	// Insert the phis at block heads (deterministic variable order).
	phiVars := make(map[*ir.Instr]*promotedVar)
	for bi, b := range f.Blocks {
		var newPhis []*ir.Instr
		for _, pv := range vars {
			if phi, ok := pv.phis[bi]; ok {
				newPhis = append(newPhis, phi)
				phiVars[phi] = pv
			}
		}
		if len(newPhis) > 0 {
			b.Instrs = append(newPhis, b.Instrs...)
		}
	}

	// Rename: DFS over the dominator tree with per-variable value stacks.
	replace := make(map[int]ir.Operand) // deleted load dst -> value
	resolve := func(o ir.Operand) ir.Operand {
		for o.Kind == ir.OperReg {
			r, ok := replace[o.Reg]
			if !ok {
				return o
			}
			o = r
		}
		return o
	}

	current := make(map[*promotedVar][]ir.Operand)
	for _, pv := range vars {
		// Allocas are zero-initialized; the undef value is typed zero.
		current[pv] = []ir.Operand{zeroOf(pv.elem)}
	}

	var rename func(b int)
	rename = func(bi int) {
		b := f.Blocks[bi]
		pops := make(map[*promotedVar]int)
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPhi:
				if pv, ok := phiVars[in]; ok {
					current[pv] = append(current[pv], ir.Reg(in.Dst, pv.elem))
					pops[pv]++
				}
				keep = append(keep, in)
			case ir.OpAlloca:
				if _, ok := varOf[in.Dst]; ok {
					continue // drop the promoted alloca
				}
				keep = append(keep, in)
			case ir.OpLoad:
				if pv := varForPtr(in.Args[0], varOf); pv != nil {
					vals := current[pv]
					replace[in.Dst] = resolve(vals[len(vals)-1])
					continue // drop the load
				}
				keep = append(keep, in)
			case ir.OpStore:
				if pv := varForPtr(in.Args[1], varOf); pv != nil {
					current[pv] = append(current[pv], resolve(in.Args[0]))
					pops[pv]++
					continue // drop the store
				}
				keep = append(keep, in)
			default:
				keep = append(keep, in)
			}
		}
		b.Instrs = keep

		// Fill phi incomings of CFG successors. A condbr whose two
		// targets coincide is one edge: its phis list bi once.
		for si, s := range cfg.Succs[bi] {
			if slices.Contains(cfg.Succs[bi][:si], s) {
				continue
			}
			for _, in := range f.Blocks[s].Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				pv, ok := phiVars[in]
				if !ok {
					continue
				}
				vals := current[pv]
				in.Args = append(in.Args, resolve(vals[len(vals)-1]))
				in.Succs = append(in.Succs, bi)
			}
		}
		for _, child := range dom.Children[bi] {
			rename(child)
		}
		for pv, n := range pops {
			current[pv] = current[pv][:len(current[pv])-n]
		}
	}
	rename(0)

	// Rewrite remaining operand uses of deleted loads.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
		}
	}
	return true
}

// findPromotable returns the single-word, non-escaping allocas of f.
func findPromotable(f *ir.Function) []*promotedVar {
	type usage struct {
		alloca  *ir.Instr
		escaped bool
		elem    ir.Type
	}
	use := map[int]*usage{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.Dst >= 0 {
				// Only fixed single-slot allocas are promotable.
				if in.Args[0].Kind == ir.OperConst && in.Args[0].Imm == 1 {
					use[in.Dst] = &usage{alloca: in, elem: ir.Void}
				}
			}
		}
	}
	if len(use) == 0 {
		return nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a.Kind != ir.OperReg {
					continue
				}
				u, tracked := use[a.Reg]
				if !tracked {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && i == 0:
					if u.elem == ir.Void {
						u.elem = in.Type
					} else if u.elem != in.Type {
						u.escaped = true // mixed-type slot: leave in memory
					}
				case in.Op == ir.OpStore && i == 1:
					vt := in.Args[0].Type
					if u.elem == ir.Void {
						u.elem = vt
					} else if u.elem != vt {
						u.escaped = true
					}
				default:
					u.escaped = true
				}
			}
		}
	}
	var out []*promotedVar
	regs := make([]int, 0, len(use))
	for r := range use {
		regs = append(regs, r)
	}
	sort.Ints(regs)
	for _, r := range regs {
		u := use[r]
		if u.escaped {
			continue
		}
		elem := u.elem
		if elem == ir.Void {
			elem = ir.I64 // never accessed; type irrelevant
		}
		out = append(out, &promotedVar{allocaDst: r, elem: elem})
	}
	return out
}

func isPtrTo(o ir.Operand, reg int) bool {
	return o.Kind == ir.OperReg && o.Reg == reg
}

func varForPtr(o ir.Operand, varOf map[int]*promotedVar) *promotedVar {
	if o.Kind != ir.OperReg {
		return nil
	}
	return varOf[o.Reg]
}

func zeroOf(t ir.Type) ir.Operand {
	switch t {
	case ir.F64:
		return ir.ConstF(0)
	case ir.I1:
		return ir.ConstB(false)
	default:
		return ir.Operand{Kind: ir.OperConst, Type: t, Imm: 0}
	}
}

func keysOf(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
