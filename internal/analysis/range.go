package analysis

import (
	"math"
	"math/bits"

	"repro/internal/ir"
)

// This file implements the value-range (interval) analysis: for every
// integer register it computes a signed interval [Lo, Hi] guaranteed to
// contain the register's value at its definition on every fault-free
// execution. It is the second instantiation of the generic forward
// worklist engine (after known-bits) and the first to use the engine's
// EdgeRefiner hook: branch conditions of the form `icmp <pred> x, C`
// sharpen x's interval separately on the true and false edges.
//
// Termination over the infinite-height interval lattice is by widening:
// once a block has been transferred more than rangeWidenAfter times,
// any bound still growing relative to the previous visit jumps to the
// corresponding extreme. There is no classic narrowing pass; instead a
// final replay from the (stable, refined) block in-states recomputes
// each definition's interval, which recovers the precision a narrowing
// iteration would inside straight-line code while keeping the per-def
// facts trivially consistent with the fixpoint.
//
// Float registers and loads/calls are tracked as the full interval:
// their recorded fact is the trivially-true one. The triage consumers
// (rangemask.go) only ever combine an interval with CONSTANT operands
// of downstream uses, in keeping with demand rule 3 (DESIGN.md §9).

// Interval is a signed 64-bit interval [Lo, Hi]. Lo > Hi encodes the
// empty interval (unreached code, contradictory refinement).
type Interval struct {
	Lo, Hi int64
}

var (
	fullIvl  = Interval{math.MinInt64, math.MaxInt64}
	emptyIvl = Interval{math.MaxInt64, math.MinInt64}
)

func singleIvl(v int64) Interval { return Interval{v, v} }

// Empty reports whether the interval contains no value.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Full reports whether the interval is the trivially-true fact.
func (iv Interval) Full() bool { return iv.Lo == math.MinInt64 && iv.Hi == math.MaxInt64 }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Size returns the number of values in the interval and whether that
// count fits an int64 (the full interval does not).
func (iv Interval) Size() (int64, bool) {
	if iv.Empty() {
		return 0, true
	}
	n := iv.Hi - iv.Lo // may overflow for huge intervals
	if n < 0 || n == math.MaxInt64 {
		return 0, false
	}
	return n + 1, true
}

func (iv Interval) union(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

func (iv Interval) intersect(o Interval) Interval {
	if o.Lo > iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi < iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

// clampType restricts an interval to a type's representable values.
func (iv Interval) clampType(t ir.Type) Interval {
	if t == ir.I1 {
		return iv.intersect(Interval{0, 1})
	}
	return iv
}

// Overflow-checked arithmetic. ok is false when the exact result does
// not fit int64 (callers then fall back to the full interval).

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	s := a - b
	if (a >= 0 && b < 0 && s < 0) || (a < 0 && b > 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func addIvl(a, b Interval) Interval {
	if a.Empty() || b.Empty() {
		return emptyIvl
	}
	lo, ok1 := addOv(a.Lo, b.Lo)
	hi, ok2 := addOv(a.Hi, b.Hi)
	if !ok1 || !ok2 {
		return fullIvl
	}
	return Interval{lo, hi}
}

func subIvl(a, b Interval) Interval {
	if a.Empty() || b.Empty() {
		return emptyIvl
	}
	lo, ok1 := subOv(a.Lo, b.Hi)
	hi, ok2 := subOv(a.Hi, b.Lo)
	if !ok1 || !ok2 {
		return fullIvl
	}
	return Interval{lo, hi}
}

func mulIvl(a, b Interval) Interval {
	if a.Empty() || b.Empty() {
		return emptyIvl
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulOv(x, y)
			if !ok {
				return fullIvl
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Interval{lo, hi}
}

// divIvlConst bounds a/c for constant c outside {0, -1} (the only
// divisors that can trap). Truncating division is monotone in the
// dividend, increasing for c > 0 and decreasing for c < 0.
func divIvlConst(a Interval, c int64) Interval {
	if a.Empty() {
		return emptyIvl
	}
	if c > 0 {
		return Interval{a.Lo / c, a.Hi / c}
	}
	return Interval{a.Hi / c, a.Lo / c}
}

// remIvlConst bounds a%c for constant c outside {0, -1}. Go's remainder
// takes the dividend's sign and |a%c| < |c|.
func remIvlConst(a Interval, c int64) Interval {
	if a.Empty() {
		return emptyIvl
	}
	if c == math.MinInt64 {
		return fullIvl // |c|-1 not representable; give up
	}
	m := c
	if m < 0 {
		m = -m
	}
	if a.Lo >= 0 {
		if a.Hi < m {
			return a // dividend already below the modulus
		}
		return Interval{0, m - 1}
	}
	if a.Hi <= 0 {
		return Interval{-(m - 1), 0}
	}
	return Interval{-(m - 1), m - 1}
}

// bitLenBound returns the smallest n with every value of [0, hi]
// representable in n bits (hi >= 0).
func bitLenBound(hi int64) int { return bits.Len64(uint64(hi)) }

// rState is the per-block engine state: one interval per register.
type rState []Interval

// rangeWidenAfter is the per-block transfer count after which still
// growing bounds are widened to the corresponding extreme.
const rangeWidenAfter = 8

// rangeProblem instantiates the forward engine as interval propagation,
// with per-edge branch refinement (EdgeRefiner) and widening folded
// into Transfer.
type rangeProblem struct {
	f  *ir.Function
	du *DefUse

	visits  []int    // per-block Transfer count, drives widening
	prevIn  []rState // in-state of a widening point's previous visit (reused buffer)
	widenAt []bool   // widening points: targets of retreating edges
}

func newRangeProblem(f *ir.Function, c *CFG, du *DefUse) *rangeProblem {
	// Widening points are the targets of retreating edges with respect
	// to the engine's reverse postorder. Every cycle contains at least
	// one retreating edge of the DFS behind that order, so widening at
	// their targets alone guarantees termination — and confining it
	// there keeps branch-refined in-states of loop BODIES exact (a
	// widened body state would wreck the refinement the header's exit
	// test just established, cascading to overflow and the full
	// interval).
	pos := make([]int, len(f.Blocks))
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range c.RPO {
		pos[b] = i
	}
	widenAt := make([]bool, len(f.Blocks))
	for _, b := range c.RPO {
		for _, s := range c.Succs[b] {
			if pos[s] >= 0 && pos[s] <= pos[b] {
				widenAt[s] = true
			}
		}
	}
	return &rangeProblem{
		f:       f,
		du:      du,
		visits:  make([]int, len(f.Blocks)),
		prevIn:  make([]rState, len(f.Blocks)),
		widenAt: widenAt,
	}
}

func (p *rangeProblem) Entry() rState {
	// Parameters may hold any value of their type; every other register
	// starts at bottom (empty). SSA verification guarantees definitions
	// dominate uses, so no reachable use observes an undefined register
	// — and keeping them empty stops a phi from absorbing the full
	// interval a not-on-this-path incoming register would otherwise
	// contribute through the merged in-state.
	s := make(rState, p.f.NumRegs)
	for i := range s {
		s[i] = emptyIvl
	}
	for r, t := range p.f.Params {
		s[r] = fullIvl.clampType(t)
	}
	return s
}

func (p *rangeProblem) Top() rState {
	s := make(rState, p.f.NumRegs)
	for i := range s {
		s[i] = emptyIvl
	}
	return s
}

func (p *rangeProblem) Meet(dst, src rState) rState {
	for i := range dst {
		dst[i] = dst[i].union(src[i])
	}
	return dst
}

func (p *rangeProblem) Equal(a, b rState) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *rangeProblem) Copy(dst, src rState) rState { return append(dst[:0], src...) }

func (p *rangeProblem) Transfer(b *ir.Block, in rState) rState {
	bi := b.Index
	p.visits[bi]++
	if p.widenAt[bi] && p.visits[bi] > rangeWidenAfter && p.prevIn[bi] != nil {
		// Widen: any bound still MOVING since the last visit jumps to
		// its extreme — in either direction. Growing bounds are the
		// classic ascending chain; bounds can also keep improving
		// inward indefinitely (an overflow-widened interval squeezed by
		// one each trip through a refined backedge), so direction is
		// irrelevant: after the threshold each bound may change at most
		// once more, to its extreme, bounding the chain height. The
		// engine records pre-widening in-states, so the final replay
		// loses none of the refined precision.
		prev := p.prevIn[bi]
		for i := range in {
			if in[i].Empty() || prev[i].Empty() {
				continue
			}
			if in[i].Lo != prev[i].Lo {
				in[i].Lo = math.MinInt64
			}
			if in[i].Hi != prev[i].Hi {
				in[i].Hi = math.MaxInt64
			}
		}
	}
	if p.widenAt[bi] {
		p.prevIn[bi] = append(p.prevIn[bi][:0], in...)
	}
	for _, instr := range b.Instrs {
		if instr.HasResult() {
			in[instr.Dst] = rangeTransfer(instr, in)
		}
	}
	return in
}

// RefineEdge sharpens the out-fact of pred on the edge pred→succ using
// pred's branch condition when it is `icmp <pred> x, C` (or the swapped
// form) with x a register and C a constant. Only the compared register
// is refined, and only from the condition's own constant — never from
// another register's fact.
func (p *rangeProblem) RefineEdge(pred, succ int, out rState) rState {
	term := p.f.Blocks[pred].Terminator()
	if term == nil || term.Op != ir.OpCondBr || term.Succs[0] == term.Succs[1] {
		return out
	}
	cond := term.Args[0]
	if cond.Kind != ir.OperReg || cond.Reg >= len(p.du.Def) {
		return out
	}
	def := p.du.Def[cond.Reg]
	if def == nil || def.Op != ir.OpICmp {
		return out
	}
	var reg int
	var c int64
	pr := def.Pred
	switch {
	case def.Args[0].Kind == ir.OperReg && def.Args[1].Kind == ir.OperConst:
		reg, c = def.Args[0].Reg, def.Args[1].Imm
	case def.Args[1].Kind == ir.OperReg && def.Args[0].Kind == ir.OperConst:
		reg, c = def.Args[1].Reg, def.Args[0].Imm
		pr = swapPred(pr)
	default:
		return out
	}
	if succ != term.Succs[0] { // false edge: the negated predicate holds
		pr = negatePred(pr)
	}
	out[reg] = out[reg].intersect(predInterval(pr, c))
	return out
}

// swapPred mirrors a predicate across swapped operands: C <pred> x
// becomes x <swapPred(pred)> C.
func swapPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredLT:
		return ir.PredGT
	case ir.PredLE:
		return ir.PredGE
	case ir.PredGT:
		return ir.PredLT
	case ir.PredGE:
		return ir.PredLE
	default:
		return p // EQ, NE are symmetric
	}
}

// negatePred returns the predicate holding when p does not.
func negatePred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredEQ:
		return ir.PredNE
	case ir.PredNE:
		return ir.PredEQ
	case ir.PredLT:
		return ir.PredGE
	case ir.PredLE:
		return ir.PredGT
	case ir.PredGT:
		return ir.PredLE
	default:
		return ir.PredLT // GE
	}
}

// predInterval returns the values x for which `x <pred> C` holds (the
// full interval when the predicate does not bound x, i.e. NE).
func predInterval(p ir.Pred, c int64) Interval {
	switch p {
	case ir.PredEQ:
		return singleIvl(c)
	case ir.PredLT:
		if c == math.MinInt64 {
			return emptyIvl
		}
		return Interval{math.MinInt64, c - 1}
	case ir.PredLE:
		return Interval{math.MinInt64, c}
	case ir.PredGT:
		if c == math.MaxInt64 {
			return emptyIvl
		}
		return Interval{c + 1, math.MaxInt64}
	case ir.PredGE:
		return Interval{c, math.MaxInt64}
	default:
		return fullIvl // NE excludes one point: not an interval
	}
}

// ivlOperand returns the interval of one operand under state s.
func ivlOperand(o ir.Operand, s rState) Interval {
	switch o.Kind {
	case ir.OperConst:
		return singleIvl(o.Imm)
	case ir.OperReg:
		return s[o.Reg]
	default:
		return fullIvl // float immediates: raw bit pattern untracked
	}
}

// rangeTransfer computes the interval of one instruction's result.
func rangeTransfer(in *ir.Instr, s rState) Interval {
	bin := func() (Interval, Interval) {
		return ivlOperand(in.Args[0], s), ivlOperand(in.Args[1], s)
	}
	var r Interval
	switch in.Op {
	case ir.OpAdd:
		a, b := bin()
		r = addIvl(a, b)
	case ir.OpSub:
		a, b := bin()
		r = subIvl(a, b)
	case ir.OpMul:
		a, b := bin()
		r = mulIvl(a, b)
	case ir.OpDiv, ir.OpRem:
		a, b := bin()
		rhs := in.Args[1]
		if a.Empty() || b.Empty() {
			r = emptyIvl
		} else if rhs.Kind == ir.OperConst && rhs.Imm != 0 && rhs.Imm != -1 {
			if in.Op == ir.OpDiv {
				r = divIvlConst(a, rhs.Imm)
			} else {
				r = remIvlConst(a, rhs.Imm)
			}
		} else {
			r = fullIvl
		}
	case ir.OpAnd:
		a, b := bin()
		switch {
		case a.Empty() || b.Empty():
			r = emptyIvl
		case a.Lo >= 0 && b.Lo >= 0:
			r = Interval{0, minI64(a.Hi, b.Hi)}
		case a.Lo >= 0: // x & y <= y and >= 0 when y >= 0
			r = Interval{0, a.Hi}
		case b.Lo >= 0:
			r = Interval{0, b.Hi}
		default:
			r = fullIvl
		}
	case ir.OpOr:
		a, b := bin()
		if a.Empty() || b.Empty() {
			r = emptyIvl
		} else if a.Lo >= 0 && b.Lo >= 0 {
			n := bitLenBound(maxI64(a.Hi, b.Hi))
			r = Interval{maxI64(a.Lo, b.Lo), int64(lowMask(n))}
		} else {
			r = fullIvl
		}
	case ir.OpXor:
		a, b := bin()
		if a.Empty() || b.Empty() {
			r = emptyIvl
		} else if a.Lo >= 0 && b.Lo >= 0 {
			n := bitLenBound(maxI64(a.Hi, b.Hi))
			r = Interval{0, int64(lowMask(n))}
		} else {
			r = fullIvl
		}
	case ir.OpShl:
		a := ivlOperand(in.Args[0], s)
		amt := in.Args[1]
		if a.Empty() {
			r = emptyIvl
		} else if amt.Kind == ir.OperConst {
			c := uint(uint64(amt.Imm) & 63)
			if c >= 63 {
				r = fullIvl
			} else {
				r = mulIvl(a, singleIvl(int64(1)<<c))
			}
		} else {
			r = fullIvl
		}
	case ir.OpShr: // arithmetic shift: monotone for constant amounts
		a := ivlOperand(in.Args[0], s)
		amt := in.Args[1]
		if a.Empty() {
			r = emptyIvl
		} else if amt.Kind == ir.OperConst {
			c := uint(uint64(amt.Imm) & 63)
			r = Interval{a.Lo >> c, a.Hi >> c}
		} else if a.Lo >= 0 { // any shift of a non-negative stays in [0, x]
			r = Interval{0, a.Hi}
		} else {
			r = fullIvl
		}
	case ir.OpICmp, ir.OpFCmp:
		r = Interval{0, 1}
	case ir.OpSelect:
		r = ivlOperand(in.Args[1], s).union(ivlOperand(in.Args[2], s))
	case ir.OpPhi:
		r = emptyIvl
		for _, a := range in.Args {
			r = r.union(ivlOperand(a, s))
		}
	case ir.OpArrayLen:
		// Array lengths are word counts: non-negative.
		r = Interval{0, math.MaxInt64}
	default:
		// Loads, calls, float arithmetic, conversions, address ops.
		r = fullIvl
	}
	return r.clampType(in.Type)
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ValueRanges holds, per register, the interval provably containing the
// register's value at its definition on every fault-free execution.
// Registers defined only in unreachable code (and parameters) keep the
// full interval.
type ValueRanges struct {
	F *ir.Function
	R []Interval
}

// At returns the interval of register r.
func (v *ValueRanges) At(r int) Interval { return v.R[r] }

// BuildRanges runs the interval analysis over f and records each
// definition's interval by replaying reachable blocks from their
// stable, edge-refined in-states (in place: the solve's in-facts are
// not read again).
func BuildRanges(f *ir.Function, c *CFG, du *DefUse) *ValueRanges {
	ins := Forward[rState](c, newRangeProblem(f, c, du))
	vr := &ValueRanges{F: f, R: make([]Interval, f.NumRegs)}
	for i := range vr.R {
		vr.R[i] = fullIvl
	}
	for r, t := range f.Params {
		vr.R[r] = vr.R[r].clampType(t)
	}
	for _, bi := range c.RPO {
		s := ins[bi]
		for _, in := range f.Blocks[bi].Instrs {
			if in.HasResult() {
				iv := rangeTransfer(in, s)
				s[in.Dst] = iv
				vr.R[in.Dst] = iv
			}
		}
	}
	return vr
}
