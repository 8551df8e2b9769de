package analysis

// DomTree is the dominator tree of one function's CFG, built with the
// Cooper-Harvey-Kennedy iterative algorithm ("A Simple, Fast Dominance
// Algorithm"), plus dominance frontiers and an O(1) Dominates query via
// pre/post DFS numbering of the tree.
type DomTree struct {
	CFG *CFG

	// Idom[b] is the immediate dominator of block b; the entry block is
	// its own idom, unreachable blocks have Idom -1.
	Idom []int

	// Children[b] lists the blocks immediately dominated by b, in
	// reverse postorder. passes.Mem2Reg renames along this order, so it
	// fixes the operand order of the phis that pass fills.
	Children [][]int

	// Frontier[b] is the dominance frontier of b: blocks d such that b
	// dominates a predecessor of d but not d itself (strictly).
	Frontier [][]int

	pre, post []int // DFS interval numbering of the dominator tree
}

// BuildDom computes the dominator tree and dominance frontiers of c.
func BuildDom(c *CFG) *DomTree {
	n := len(c.F.Blocks)
	d := &DomTree{CFG: c, Idom: make([]int, n)}
	for i := range d.Idom {
		d.Idom[i] = -1
	}
	if n == 0 {
		return d
	}
	d.Idom[0] = 0

	// intersect walks two candidate dominators up the current tree until
	// they meet, comparing by postorder number (higher RPO index = lower
	// postorder number, so walk the one that is deeper in RPO).
	intersect := func(a, b int) int {
		for a != b {
			for c.RPONum[a] > c.RPONum[b] {
				a = d.Idom[a]
			}
			for c.RPONum[b] > c.RPONum[a] {
				b = d.Idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range c.Preds[b] {
				if !c.Reachable(p) || d.Idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && d.Idom[b] != newIdom {
				d.Idom[b] = newIdom
				changed = true
			}
		}
	}

	d.Children = make([][]int, n)
	for _, b := range c.RPO {
		if b != 0 {
			d.Children[d.Idom[b]] = append(d.Children[d.Idom[b]], b)
		}
	}

	// Pre/post numbering of the dominator tree for O(1) Dominates.
	d.pre = make([]int, n)
	d.post = make([]int, n)
	clock := 0
	type frame struct{ block, next int }
	stack := []frame{{0, 0}}
	d.pre[0] = clock
	clock++
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(d.Children[fr.block]) {
			ch := d.Children[fr.block][fr.next]
			fr.next++
			d.pre[ch] = clock
			clock++
			stack = append(stack, frame{ch, 0})
			continue
		}
		d.post[fr.block] = clock
		clock++
		stack = stack[:len(stack)-1]
	}

	// Dominance frontiers (CHK): for each join point, walk each
	// predecessor's dominator chain up to the join's idom.
	d.Frontier = make([][]int, n)
	for _, b := range c.RPO {
		if len(c.Preds[b]) < 2 {
			continue
		}
		for _, p := range c.Preds[b] {
			if !c.Reachable(p) || d.Idom[p] < 0 {
				continue
			}
			for runner := p; runner != d.Idom[b]; runner = d.Idom[runner] {
				if fr := d.Frontier[runner]; len(fr) == 0 || fr[len(fr)-1] != b {
					d.Frontier[runner] = append(d.Frontier[runner], b)
				}
			}
		}
	}
	return d
}

// Dominates reports whether block a dominates block b (reflexively).
// Unreachable blocks dominate nothing and are dominated by nothing.
func (d *DomTree) Dominates(a, b int) bool {
	if !d.CFG.Reachable(a) || !d.CFG.Reachable(b) {
		return false
	}
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (d *DomTree) StrictlyDominates(a, b int) bool {
	return a != b && d.Dominates(a, b)
}
