package passes

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// CSE performs dominator-scoped common-subexpression elimination: a pure
// instruction whose (opcode, operands) expression was already computed by
// a dominating instruction is deleted and its uses rewritten to the
// earlier result.
//
// CSE is provided as an optional pass (not part of Standard()): fewer
// dynamic instructions shift every profile-derived number, and the
// checked-in experiment results were produced with the standard pipeline.
// Run it via RunPipeline(m, Mem2Reg{}, CSE{}, DCE{}) when a leaner
// instruction stream is wanted.
type CSE struct{}

// Name implements Pass.
func (CSE) Name() string { return "cse" }

// Run implements Pass.
func (CSE) Run(m *ir.Module) (bool, error) {
	changed := false
	for _, f := range m.Funcs {
		if cseFunction(f) {
			changed = true
		}
	}
	return changed, nil
}

// pureKey returns a value-numbering key for in, or "" if the instruction
// is not a candidate (impure, memory-dependent, or potentially trapping —
// removing a second div would be fine semantically, but keeping traps
// untouched keeps the pass trivially safe).
func pureKey(in *ir.Instr) string {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpICmp, ir.OpFCmp, ir.OpIToF, ir.OpSelect, ir.OpGEP,
		ir.OpGlobalAddr, ir.OpArrayLen:
	default:
		return ""
	}
	if !in.HasResult() {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d/%d/%d", in.Op, in.Pred, in.Global, in.Type)
	for _, a := range in.Args {
		fmt.Fprintf(&sb, "|%d:%d:%d:%x", a.Kind, a.Type, a.Reg, a.Imm)
		if a.Kind == ir.OperConstF {
			fmt.Fprintf(&sb, ":%g", a.FImm)
		}
	}
	return sb.String()
}

func cseFunction(f *ir.Function) bool {
	dom := analysis.BuildDom(analysis.BuildCFG(f))
	replace := map[int]ir.Operand{}
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

	changed := false
	// Scoped value table along the dominator tree: walk pushes a child
	// scope per block, so available expressions are exactly those computed
	// by dominators.
	type scopeEntry struct {
		key  string
		prev ir.Operand
		had  bool
	}
	table := map[string]ir.Operand{}

	var walk func(bi int)
	walk = func(bi int) {
		var pushed []scopeEntry
		b := f.Blocks[bi]
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			// Resolve operands through prior replacements first so that
			// chains of redundancy collapse (a+b; a+b; a+b).
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
			key := pureKey(in)
			if key == "" {
				keep = append(keep, in)
				continue
			}
			if prior, ok := table[key]; ok {
				replace[in.Dst] = prior
				changed = true
				continue // drop the redundant instruction
			}
			prev, had := table[key]
			pushed = append(pushed, scopeEntry{key: key, prev: prev, had: had})
			table[key] = ir.Reg(in.Dst, in.Type)
			keep = append(keep, in)
		}
		b.Instrs = keep

		for _, child := range dom.Children[bi] {
			walk(child)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			e := pushed[i]
			if e.had {
				table[e.key] = e.prev
			} else {
				delete(table, e.key)
			}
		}
	}
	walk(0)

	if changed {
		// Rewrite any remaining uses (phis in non-dominated blocks, later
		// operands).
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					in.Args[i] = resolve(a)
				}
			}
		}
	}
	return changed
}
