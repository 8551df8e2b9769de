package analysis

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// VerifySSA checks strict SSA-dominance well-formedness of a finalized
// module using the dominator tree: every register is assigned by at
// most one instruction, every use of a register is dominated by its
// definition (phi uses by the terminator of the matching incoming
// block), every phi in reachable code lists each distinct predecessor
// of its block exactly once and no other block, and no instruction in
// reachable code reads a register that is neither a parameter nor
// defined anywhere.
//
// It is registered as ir.VerifyStrict's dominance checker, so callers
// that link this package get the strict mode through the ir API.
func VerifySSA(m *ir.Module) error {
	for fi, f := range m.Funcs {
		if err := verifyFuncSSA(m, fi, f); err != nil {
			return err
		}
	}
	return nil
}

func init() { ir.RegisterStrictSSA(VerifySSA) }

func verifyFuncSSA(m *ir.Module, fi int, f *ir.Function) error {
	du := BuildDefUse(f)
	if !du.SingleAssignment {
		// Locate one offending pair for the message.
		seen := make(map[int]*ir.Instr)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() {
					continue
				}
				if first, ok := seen[in.Dst]; ok {
					return fmt.Errorf("func %s: register %%r%d assigned by [%d] %s and [%d] %s",
						f.Name, in.Dst, first.ID, first.Op, in.ID, in.Op)
				}
				seen[in.Dst] = in
			}
		}
	}
	cfg := BuildCFG(f)
	dom := BuildDom(cfg)

	// defAt[r] = (block, position) of r's definition.
	type defPos struct{ block, pos int }
	defs := make(map[int]defPos)
	for bi, b := range f.Blocks {
		for pi, in := range b.Instrs {
			if in.HasResult() {
				defs[in.Dst] = defPos{bi, pi}
			}
		}
	}

	for bi, b := range f.Blocks {
		if !cfg.Reachable(bi) {
			continue // dominance is undefined off the entry's region
		}
		for pi, in := range b.Instrs {
			if in.Op == ir.OpPhi && !phiEdgesMatch(cfg.Preds[bi], in.Succs) {
				return fmt.Errorf("func %s bb%d pos %d [%d] phi: incoming blocks %v, want each distinct predecessor once (predecessors %v)",
					f.Name, bi, pi, in.ID, in.Succs, cfg.Preds[bi])
			}
			for ai, a := range in.Args {
				if a.Kind != ir.OperReg {
					continue
				}
				if du.IsParam(a.Reg) {
					continue
				}
				dp, ok := defs[a.Reg]
				if !ok {
					return fmt.Errorf("func %s bb%d pos %d [%d] %s: use of undefined register %%r%d",
						f.Name, bi, pi, in.ID, in.Op, a.Reg)
				}
				if in.Op == ir.OpPhi {
					// The use happens on the edge from the incoming
					// block: the def must dominate that block's exit.
					pred := in.Succs[ai]
					if !cfg.Reachable(pred) {
						continue
					}
					if !dom.Dominates(dp.block, pred) {
						return fmt.Errorf("func %s bb%d pos %d [%d] phi: incoming %%r%d from bb%d not dominated by its definition in bb%d",
							f.Name, bi, pi, in.ID, a.Reg, pred, dp.block)
					}
					continue
				}
				if dp.block == bi {
					if dp.pos >= pi {
						return fmt.Errorf("func %s bb%d pos %d [%d] %s: use of %%r%d before its definition at pos %d",
							f.Name, bi, pi, in.ID, in.Op, a.Reg, dp.pos)
					}
					continue
				}
				if !dom.StrictlyDominates(dp.block, bi) {
					return fmt.Errorf("func %s bb%d pos %d [%d] %s: use of %%r%d not dominated by its definition in bb%d",
						f.Name, bi, pi, in.ID, in.Op, a.Reg, dp.block)
				}
			}
		}
	}
	return nil
}

// phiEdgesMatch reports whether a phi's incoming blocks are exactly the
// distinct blocks of preds, each listed once (a condbr whose two
// targets coincide is one edge for the phi). Both lists are a few
// entries long, so quadratic scans stand in for a set and allocate
// nothing.
func phiEdgesMatch(preds, incoming []int) bool {
	distinct := 0
	for i, p := range preds {
		if !slices.Contains(preds[:i], p) {
			distinct++
		}
	}
	if len(incoming) != distinct {
		return false
	}
	for i, b := range incoming {
		if !slices.Contains(preds, b) || slices.Contains(incoming[:i], b) {
			return false
		}
	}
	return true
}
