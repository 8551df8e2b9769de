package analysis

import (
	"slices"

	"repro/internal/ir"
)

// This file derives the ProvablyDetected facts: sites where EVERY
// value-changing perturbation of the result is guaranteed to trip an
// armed detector before it can influence anything else, so a campaign
// may count the site Detected without executing it.
//
// Two shapes are recognized, both anchored on the golden run having
// completed (the campaign always takes a golden run first, and a
// passing OpDetect halts the program otherwise):
//
//  1. detectAll (the duplication triple): the first instruction reading
//     the corrupted register v within the scan window is
//     `cmp = icmp eq v, w` immediately followed by `detect cmp`, where
//     exactly one comparison operand is v (the other a different
//     register or a constant — either is fault-free under the
//     single-fault model). The golden run passed every instance of the
//     detect, so the golden comparison was true at every instance:
//     w's value equals v's golden value. A perturbation that CHANGES v
//     therefore makes the comparison false and the detect halts. The
//     instructions between v's definition and the comparison do not
//     read v, so they behave exactly as in the golden run (in
//     particular they cannot trap — the golden run did not); nothing
//     observable happens before the detect fires. Valid for any bits:
//     the proof needs only v-corrupt ≠ v-golden, which AlwaysFlips
//     fault classes guarantee for every mask.
//
//  2. detectNext: the instruction immediately after v's definition is
//     `detect v`. The golden run passed it, so golden bit 0 is 1 at
//     every instance; a perturbation flipping bit 0 clears it and the
//     detect halts with nothing in between. Valid only for effects
//     that touch bit 0 (checked by the caller) under AlwaysFlips.
//
// Both shapes are invalid for stuck-at models: a stuck-at perturbation
// may leave the value unchanged, in which case the detector stays
// quiet and the outcome is Benign, not Detected. FaultClass.AlwaysFlips
// gates them (triage.go).

// detectScanWindow bounds how far past a definition the detectAll scan
// looks for the comparison. The duplication transform places its
// triple immediately after the protected instruction, so a small
// window is sufficient and keeps the scan linear. A phi's triple
// follows its whole phi group instead, after the triples of the
// group's earlier phis, so for a phi the scan starts past the group
// and widens by one triple per phi of the group.
const detectScanWindow = 8

// detectFacts records, per instruction ID, the detection proofs.
type detectFacts struct {
	all  []bool // any value change is detected (shape 1)
	next []bool // a bit-0 change is detected (shape 2)
	// unguarded: no detector can catch any perturbation of the result
	// (nil unless every detector of the module is a duplication check).
	unguarded []bool
}

// buildDetectFacts scans every block for the two shapes.
func buildDetectFacts(m *ir.Module) detectFacts {
	d := detectFacts{
		all:  make([]bool, m.NumInstrs()),
		next: make([]bool, m.NumInstrs()),
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if !in.HasResult() {
					continue
				}
				if i+1 < len(b.Instrs) {
					n := b.Instrs[i+1]
					if n.Op == ir.OpDetect && readsOnly(n.Args[0], in.Dst) {
						d.next[in.ID] = true
					}
				}
				d.all[in.ID] = scanDetectAll(b.Instrs, i, in.Dst)
			}
		}
	}
	d.unguarded = buildUnguarded(m)
	return d
}

// buildUnguarded derives the unguarded facts of a single-assignment
// module whose only protection code is duplication triples
// `D′ = clone D; c = icmp eq D, D′; detect c`, where D′ reads D's
// operands with nothing in between writing them. A perturbation of an
// instruction X that has no duplicate then never trips a detector: if it
// reaches a checked D at all, it reaches D′ through the same operand
// values, so D and D′ agree. Such an X is unguarded under every
// value-local fault model. It returns nil when any detector or Dup
// instruction is not part of such a triple (inv and cfgsig code).
func buildUnguarded(m *ir.Module) []bool {
	guarded := make([]bool, m.NumInstrs())
	inTriple := make([]bool, m.NumInstrs())
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op != ir.OpDetect {
					continue
				}
				d, ok := dupTriple(b.Instrs, i)
				if !ok {
					return nil
				}
				guarded[d.ID] = true
				for _, t := range b.Instrs[i-2 : i+1] {
					inTriple[t.ID] = true
				}
			}
		}
	}
	unguarded := make([]bool, m.NumInstrs())
	for _, in := range m.Instrs {
		if in.Dup && !inTriple[in.ID] {
			return nil
		}
		unguarded[in.ID] = !in.Dup && !guarded[in.ID]
	}
	return unguarded
}

// dupTriple matches the detect at instrs[i] as the end of a duplication
// triple and returns its checked instruction D. D′ and the comparison
// immediately precede the detect; D precedes D′ in the block, and only
// phis and other triples' instructions, none writing a register D
// reads, lie between them (a phi's triple follows its phi group).
func dupTriple(instrs []*ir.Instr, i int) (d *ir.Instr, ok bool) {
	if i < 3 {
		return nil, false
	}
	det, cmp, clone := instrs[i], instrs[i-1], instrs[i-2]
	if !det.Dup || !cmp.Dup || !clone.Dup || cmp.Op != ir.OpICmp || cmp.Pred != ir.PredEQ ||
		len(det.Args) != 1 || !readsOnly(det.Args[0], cmp.Dst) ||
		len(cmp.Args) != 2 || !readsOnly(cmp.Args[1], clone.Dst) || cmp.Args[0].Kind != ir.OperReg {
		return nil, false
	}
	for j := i - 3; j >= 0; j-- {
		d := instrs[j]
		if !d.HasResult() || d.Dst != cmp.Args[0].Reg {
			continue
		}
		if d.Dup || !sameComputation(d, clone) {
			return nil, false
		}
		for _, mid := range instrs[j+1 : i-2] {
			if (mid.Op != ir.OpPhi && !mid.Dup) || (mid.HasResult() && readsReg(d, mid.Dst)) {
				return nil, false
			}
		}
		return d, true
	}
	return nil, false
}

// sameComputation reports whether a and b compute the same function of
// the same operands.
func sameComputation(a, b *ir.Instr) bool {
	return a.Op == b.Op && a.Type == b.Type && a.Pred == b.Pred && a.Callee == b.Callee &&
		a.BFunc == b.BFunc && a.Global == b.Global &&
		slices.Equal(a.Args, b.Args) && slices.Equal(a.Succs, b.Succs)
}

// scanDetectAll checks shape 1 for the definition of register v at
// instrs[i]: within the window, the first reader of v must be an
// eq-comparison against a clean operand whose result feeds an
// immediately following detect. The phis after a phi of the block's
// leading group are no readers: the group reads all its operands before
// it writes any result, so they see v's value from before the fault.
func scanDetectAll(instrs []*ir.Instr, i, v int) bool {
	start, window := i+1, detectScanWindow
	if leading(instrs, i) {
		for start < len(instrs) && instrs[start].Op == ir.OpPhi {
			start++
		}
		window += 3 * start
	}
	end := min(start+window, len(instrs))
	for j := start; j < end; j++ {
		u := instrs[j]
		if u.HasResult() && u.Dst == v {
			return false // v redefined before any check (non-SSA safety)
		}
		if !readsReg(u, v) {
			continue
		}
		// First reader of v. It must be the duplication check.
		if u.Op != ir.OpICmp || u.Pred != ir.PredEQ || j+1 >= len(instrs) {
			return false
		}
		det := instrs[j+1]
		if det.Op != ir.OpDetect || !readsOnly(det.Args[0], u.Dst) {
			return false
		}
		// Exactly one comparison operand is v: `icmp eq v, v` is true
		// however v is corrupted and detects nothing.
		a0v := u.Args[0].Kind == ir.OperReg && u.Args[0].Reg == v
		a1v := u.Args[1].Kind == ir.OperReg && u.Args[1].Reg == v
		return a0v != a1v
	}
	return false
}

// leading reports whether instrs[i] belongs to its block's leading phi
// group.
func leading(instrs []*ir.Instr, i int) bool {
	for _, in := range instrs[:i+1] {
		if in.Op != ir.OpPhi {
			return false
		}
	}
	return true
}

// readsReg reports whether in reads register r through any operand.
func readsReg(in *ir.Instr, r int) bool {
	for _, a := range in.Args {
		if a.Kind == ir.OperReg && a.Reg == r {
			return true
		}
	}
	return false
}

// readsOnly reports whether operand o is exactly register r.
func readsOnly(o ir.Operand, r int) bool {
	return o.Kind == ir.OperReg && o.Reg == r
}
