// Package analysis is a reusable dataflow-analysis framework over the IR
// in package ir: per-function control-flow graphs, dominator trees (the
// Cooper-Harvey-Kennedy algorithm) with dominance frontiers, backward
// liveness, def-use chains, a generic forward worklist engine with a
// known-bits instantiation, an interprocedural demanded-bits analysis,
// and a dead-store pass.
//
// On top of those facts the package exposes a fault-site triage: every
// (instruction, bit) injection site of a module is classified as
// provably masked (a flip there can never change the program's outcome)
// or unknown. The fault-campaign engine consults the triage to skip
// provably masked sites, which is an attested optimization: the
// classification is backed by a machine-checkable proof tag and enforced
// by differential injection tests (see DESIGN.md §9 for the soundness
// argument).
package analysis

import "repro/internal/ir"

// CFG is the control-flow graph of one function: successor and
// predecessor block lists plus a reverse-postorder numbering of the
// reachable blocks. Succs[b] is b's terminator target list as written,
// so `condbr -> X X` lists X twice (and b twice in Preds[X]).
type CFG struct {
	F     *ir.Function
	Succs [][]int
	Preds [][]int

	// RPO lists reachable block indices in reverse postorder (entry
	// first); RPONum maps a block index to its position in RPO, -1 for
	// unreachable blocks.
	RPO    []int
	RPONum []int
}

// BuildCFG derives the control-flow graph of f from its block
// terminators.
func BuildCFG(f *ir.Function) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		F:      f,
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		RPONum: make([]int, n),
	}
	for i, b := range f.Blocks {
		if t := b.Terminator(); t != nil {
			c.Succs[i] = append([]int(nil), t.Succs...)
		}
	}
	for from, succs := range c.Succs {
		for _, to := range succs {
			c.Preds[to] = append(c.Preds[to], from)
		}
	}
	// Iterative postorder DFS from the entry block.
	post := make([]int, 0, n)
	visited := make([]bool, n)
	type frame struct{ block, next int }
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(c.Succs[fr.block]) {
			s := c.Succs[fr.block][fr.next]
			fr.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, fr.block)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i := range post {
		c.RPO[i] = post[len(post)-1-i]
	}
	for i := range c.RPONum {
		c.RPONum[i] = -1
	}
	for i, b := range c.RPO {
		c.RPONum[b] = i
	}
	return c
}

// Reachable reports whether block b is reachable from the entry.
func (c *CFG) Reachable(b int) bool { return c.RPONum[b] >= 0 }
