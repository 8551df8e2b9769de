package analysis

import (
	"math"
	"math/bits"

	"repro/internal/ir"
)

// kbFact is the known-bits lattice element for one register: bit i of
// Zero means "bit i is provably 0", bit i of One "provably 1". Both set
// (contradiction) encodes the optimistic top element of unreached code.
type kbFact struct{ Zero, One uint64 }

var kbUnknown = kbFact{}
var kbTop = kbFact{Zero: ^uint64(0), One: ^uint64(0)}

func kbConst(v uint64) kbFact { return kbFact{Zero: ^v, One: v} }

func (a kbFact) meet(b kbFact) kbFact {
	return kbFact{Zero: a.Zero & b.Zero, One: a.One & b.One}
}

// known reports whether every bit of the value is determined.
func (a kbFact) known() bool { return a.Zero|a.One == ^uint64(0) }

// value returns the concrete value when known() (Zero/One disjoint).
func (a kbFact) value() uint64 { return a.One }

// kbState is the per-block engine state: one fact per register.
type kbState []kbFact

// kbProblem instantiates the forward engine as constant/bit-masking
// propagation through and/or/xor/shifts/mul/add/icmp/select/phi.
type kbProblem struct{ f *ir.Function }

func (p kbProblem) Entry() kbState {
	s := make(kbState, p.f.NumRegs)
	return s // parameters and undefined registers: unknown
}

func (p kbProblem) Top() kbState {
	s := make(kbState, p.f.NumRegs)
	for i := range s {
		s[i] = kbTop
	}
	return s
}

func (p kbProblem) Meet(dst, src kbState) kbState {
	for i := range dst {
		dst[i] = dst[i].meet(src[i])
	}
	return dst
}

func (p kbProblem) Equal(a, b kbState) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p kbProblem) Copy(dst, src kbState) kbState { return append(dst[:0], src...) }

func (p kbProblem) Transfer(b *ir.Block, in kbState) kbState {
	for _, instr := range b.Instrs {
		if instr.HasResult() {
			in[instr.Dst] = kbTransfer(instr, in)
		}
	}
	return in
}

// kbOperand returns the fact of one operand under state s.
func kbOperand(o ir.Operand, s kbState) kbFact {
	switch o.Kind {
	case ir.OperConst:
		return kbConst(uint64(o.Imm))
	case ir.OperConstF:
		return kbConst(math.Float64bits(o.FImm))
	case ir.OperReg:
		return s[o.Reg]
	default:
		return kbUnknown
	}
}

// kbTransfer computes the known bits of one instruction's result.
func kbTransfer(in *ir.Instr, s kbState) kbFact {
	bin := func() (kbFact, kbFact) {
		return kbOperand(in.Args[0], s), kbOperand(in.Args[1], s)
	}
	var r kbFact
	switch in.Op {
	case ir.OpAnd:
		a, b := bin()
		r = kbFact{Zero: a.Zero | b.Zero, One: a.One & b.One}
	case ir.OpOr:
		a, b := bin()
		r = kbFact{Zero: a.Zero & b.Zero, One: a.One | b.One}
	case ir.OpXor:
		a, b := bin()
		r = kbFact{
			Zero: (a.Zero & b.Zero) | (a.One & b.One),
			One:  (a.Zero & b.One) | (a.One & b.Zero),
		}
	case ir.OpShl:
		a, b := bin()
		if b.known() {
			c := b.value() & 63
			r = kbFact{Zero: a.Zero<<c | (1<<c - 1), One: a.One << c}
		}
	case ir.OpShr: // arithmetic: high bits fill with the sign bit
		a, b := bin()
		if b.known() {
			c := b.value() & 63
			r = kbFact{Zero: a.Zero >> c, One: a.One >> c}
			if c > 0 {
				high := ^uint64(0) << (64 - c)
				switch {
				case a.Zero&(1<<63) != 0:
					r.Zero |= high
				case a.One&(1<<63) != 0:
					r.One |= high
				}
			}
		}
	case ir.OpAdd, ir.OpSub, ir.OpMul:
		a, b := bin()
		if a.known() && b.known() {
			x, y := int64(a.value()), int64(b.value())
			switch in.Op {
			case ir.OpAdd:
				r = kbConst(uint64(x + y))
			case ir.OpSub:
				r = kbConst(uint64(x - y))
			default:
				r = kbConst(uint64(x * y))
			}
		} else if in.Op == ir.OpMul {
			// Trailing known-zero runs multiply: tz(a*b) >= tz(a)+tz(b).
			tz := kbTrailingZeros(a) + kbTrailingZeros(b)
			if tz > 64 {
				tz = 64
			}
			r = kbFact{Zero: lowMask(tz)}
		} else {
			// Sum/difference of values with a shared fully-known low
			// prefix: carries cannot enter from below it, so the low
			// bits are exact.
			kl := sharedKnownPrefix(a, b)
			if kl > 0 {
				var v uint64
				if in.Op == ir.OpAdd {
					v = a.value() + b.value()
				} else {
					v = a.value() - b.value()
				}
				m := lowMask(kl)
				r = kbFact{Zero: ^v & m, One: v & m}
			}
		}
	case ir.OpICmp, ir.OpFCmp:
		r = kbFact{Zero: ^uint64(1)} // boolWord result: bits 1..63 are 0
	case ir.OpSelect:
		r = kbOperand(in.Args[1], s).meet(kbOperand(in.Args[2], s))
	case ir.OpPhi:
		r = kbTop
		for _, a := range in.Args {
			r = r.meet(kbOperand(a, s))
		}
	default:
		// Loads, calls, float arithmetic, conversions, address ops:
		// nothing is structurally known about the result.
		r = kbUnknown
	}
	if in.Type == ir.I1 {
		r.Zero |= ^uint64(1)
		r.One &= 1
	}
	return r
}

// kbTrailingZeros returns the number of provably-zero low bits.
func kbTrailingZeros(a kbFact) int {
	return bits.TrailingZeros64(^a.Zero)
}

// sharedKnownPrefix returns the length of the low-bit run fully known in
// both operands.
func sharedKnownPrefix(a, b kbFact) int {
	ka := a.Zero | a.One
	kb := b.Zero | b.One
	return bits.TrailingZeros64(^(ka & kb))
}

// lowMask returns a mask of the n lowest bits (n in 0..64).
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// KnownBits holds, per register, the bits provably zero or one at the
// register's definition, assuming a fault-free execution. These facts
// are for heuristics, reporting, and tests; the demanded-bits triage
// deliberately does not consume them (see DESIGN.md §9: facts inherited
// through registers do not survive an injection at an upstream site).
type KnownBits struct {
	F         *ir.Function
	Zero, One []uint64
}

// BuildKnownBits runs the known-bits propagation over f.
func BuildKnownBits(f *ir.Function, c *CFG) *KnownBits {
	ins := Forward[kbState](c, kbProblem{f: f})
	kb := &KnownBits{F: f, Zero: make([]uint64, f.NumRegs), One: make([]uint64, f.NumRegs)}
	// Replay each reachable block from its in-state (in place: the
	// solve's in-facts are not read again), recording the fact of every
	// defined register.
	for _, bi := range c.RPO {
		s := ins[bi]
		for _, in := range f.Blocks[bi].Instrs {
			if in.HasResult() {
				fact := kbTransfer(in, s)
				s[in.Dst] = fact
				kb.Zero[in.Dst] = fact.Zero
				kb.One[in.Dst] = fact.One
			}
		}
	}
	return kb
}
