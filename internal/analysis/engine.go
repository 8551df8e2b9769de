package analysis

import "repro/internal/ir"

// ForwardProblem describes a forward dataflow problem over one
// function's CFG for the generic worklist engine. S is the per-block
// state (the fact holding at a block boundary). The engine owns every
// state it obtains from Entry and Top and reuses those buffers for the
// whole solve: Meet, Transfer and Copy mutate their first state
// argument in place and return it.
type ForwardProblem[S any] interface {
	// Entry returns a fresh fact holding at the entry block's start.
	Entry() S
	// Top returns a fresh optimistic initial fact for unvisited block
	// inputs; Meet moves facts strictly down the lattice from it.
	Top() S
	// Meet combines a predecessor's out-fact src into dst and returns
	// dst. It must not mutate src.
	Meet(dst, src S) S
	// Transfer applies block b to in, overwriting in with the out-fact,
	// and returns it.
	Transfer(b *ir.Block, in S) S
	// Equal reports whether two facts are the same (fixpoint test).
	Equal(a, b S) bool
	// Copy overwrites dst with src and returns dst.
	Copy(dst, src S) S
}

// EdgeRefiner is an optional extension of ForwardProblem: a problem
// implementing it has each predecessor's out-fact refined per CFG edge
// before the meet. This is how branch-condition refinement enters the
// engine — on the edge pred→succ the refiner may sharpen the fact with
// whatever the terminator's condition implies for that edge (e.g. the
// true edge of `icmp slt x, 10` bounds x above). RefineEdge receives a
// scratch copy of pred's out-fact, which it may mutate and return.
type EdgeRefiner[S any] interface {
	RefineEdge(pred, succ int, out S) S
}

// Forward solves p over c with a FIFO worklist seeded in reverse
// postorder and returns the in-fact of every block (indexed by block
// number; unreachable blocks keep Top). The returned states are the
// caller's to keep or mutate.
//
// A solve allocates per block, not per visit: each block owns one
// in-fact and one out-fact buffer, and three shared scratch states
// serve the meet's starting point, the refined edge and the transfer.
// A changed out-fact is swapped with the transfer scratch.
func Forward[S any](c *CFG, p ForwardProblem[S]) []S {
	n := len(c.F.Blocks)
	in := make([]S, n)
	out := make([]S, n)
	for b := 0; b < n; b++ {
		in[b] = p.Top()
		out[b] = p.Top()
	}
	// The entry block ignores its predecessors, so its in-fact is final
	// from the start (RPO visits it first).
	if n > 0 {
		in[0] = p.Entry()
	}
	top, edge, next := p.Top(), p.Top(), p.Top()

	// The worklist holds each block at most once, so a ring of n slots
	// never overflows.
	inWork := make([]bool, n)
	work := make([]int, n)
	head, size := 0, 0
	push := func(b int) {
		if !inWork[b] {
			inWork[b] = true
			work[(head+size)%n] = b
			size++
		}
	}
	// Seed in RPO so the first sweep visits defs before most uses.
	for _, b := range c.RPO {
		push(b)
	}
	refiner, _ := any(p).(EdgeRefiner[S])
	for size > 0 {
		// Pop from the front to keep near-RPO processing order.
		b := work[head]
		head = (head + 1) % n
		size--
		inWork[b] = false

		cur := in[b]
		if b != 0 {
			cur = p.Copy(cur, top)
			for _, pr := range c.Preds[b] {
				if !c.Reachable(pr) {
					continue
				}
				po := out[pr]
				if refiner != nil {
					edge = refiner.RefineEdge(pr, b, p.Copy(edge, po))
					po = edge
				}
				cur = p.Meet(cur, po)
			}
			in[b] = cur
		}
		next = p.Transfer(c.F.Blocks[b], p.Copy(next, cur))
		if !p.Equal(next, out[b]) {
			out[b], next = next, out[b]
			for _, s := range c.Succs[b] {
				push(s)
			}
		}
	}
	return in
}
