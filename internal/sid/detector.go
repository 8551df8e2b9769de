package sid

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Detector is one member of the protection portfolio: a code transform
// that guards a selected instruction against result corruption, with a
// per-site cost and a per-model coverage estimate the multi-choice
// knapsack trades off (the DETOx formulation: per site, pick one
// detector or none).
//
// The interface is sealed (lower is unexported): detectors live next to
// the duplication transform because lowering must preserve the module
// invariants Duplicate relies on (leading phi groups, Dup marking,
// Finalize renumbering).
type Detector interface {
	// Name is the registry key and the -detector CLI spelling.
	Name() string
	// Applicable reports whether the detector can protect instruction
	// id. Non-applicable sites contribute no option to the knapsack.
	Applicable(fa *analysis.Facts, id int) bool
	// CostFactor scales the site's Eq.-1 cost into this detector's
	// protection cost, normalized so duplication is exactly 1 (keeping
	// the dup-only portfolio bit-compatible with the 0-1 knapsack).
	CostFactor(fa *analysis.Facts, id int) float64
	// Coverage estimates, in [0,1], the fraction of model-m faults in
	// the site's result this detector catches. Duplication is 1 for
	// every value-local model; weaker detectors consult m's patterns.
	Coverage(fa *analysis.Facts, id int, m fault.Model) float64
	// lower emits the protection code for in (already appended to out)
	// and returns the instructions to append after it. Successor-block
	// insertions go through st.
	lower(st *lowerState, fa *analysis.Facts, f *ir.Function, in *ir.Instr) []*ir.Instr
}

// ---- registry ----

var (
	detectorMu    sync.RWMutex
	detectorByKey = map[string]Detector{}
	detectorOrder []string
)

// RegisterDetector adds d to the registry under d.Name(); duplicate
// names panic (detector names participate in cache keys).
func RegisterDetector(d Detector) {
	detectorMu.Lock()
	defer detectorMu.Unlock()
	name := d.Name()
	if _, dup := detectorByKey[name]; dup {
		panic(fmt.Sprintf("sid: duplicate detector %q", name))
	}
	detectorByKey[name] = d
	detectorOrder = append(detectorOrder, name)
}

// DetectorByName returns the registered detector named name.
func DetectorByName(name string) (Detector, bool) {
	detectorMu.RLock()
	defer detectorMu.RUnlock()
	d, ok := detectorByKey[name]
	return d, ok
}

// Detectors returns every registered detector in registration order.
func Detectors() []Detector {
	detectorMu.RLock()
	defer detectorMu.RUnlock()
	out := make([]Detector, len(detectorOrder))
	for i, n := range detectorOrder {
		out[i] = detectorByKey[n]
	}
	return out
}

// DetectorNames returns every registered detector name in order.
func DetectorNames() []string {
	detectorMu.RLock()
	defer detectorMu.RUnlock()
	return append([]string(nil), detectorOrder...)
}

// DefaultDetector returns the paper's detector: instruction duplication.
func DefaultDetector() Detector { return dupDetector{} }

func init() {
	RegisterDetector(dupDetector{})
	RegisterDetector(invDetector{})
	RegisterDetector(cfgSigDetector{})
}

// dupInsertedCycles is the per-execution cycle cost duplication inserts
// at a site: the re-executed instruction plus the compare and detect.
func dupInsertedCycles(in *ir.Instr) float64 {
	return float64(in.Op.Cycles() + ir.OpICmp.Cycles() + ir.OpDetect.Cycles())
}

// ---- dup: instruction duplication (paper Fig. 1c) ----

type dupDetector struct{}

func (dupDetector) Name() string { return "dup" }

func (dupDetector) Applicable(fa *analysis.Facts, id int) bool {
	return Duplicable(fa.Mod, fa.Mod.Instrs[id])
}

// CostFactor is exactly 1: the dup-only portfolio must reproduce the
// 0-1 knapsack's selections bit-for-bit.
func (dupDetector) CostFactor(fa *analysis.Facts, id int) float64 { return 1 }

// Coverage is 1 for every value-local model: the immediate re-execution
// is fault-free, so any perturbation of the result (XOR or stuck-at,
// any mask) makes the comparison fail.
func (dupDetector) Coverage(fa *analysis.Facts, id int, m fault.Model) float64 {
	if !m.Class().ValueLocal {
		return 0
	}
	return 1
}

func (dupDetector) lower(st *lowerState, fa *analysis.Facts, f *ir.Function, in *ir.Instr) []*ir.Instr {
	dup := in.Clone()
	dup.Dst = f.NumRegs
	f.NumRegs++
	dup.Dup = true
	dup.Comment = "dup"

	cmp := &ir.Instr{
		Op:   ir.OpICmp,
		Pred: ir.PredEQ,
		Type: ir.I1,
		Dst:  f.NumRegs,
		Args: []ir.Operand{
			ir.Reg(in.Dst, in.Type),
			ir.Reg(dup.Dst, in.Type),
		},
		Dup:     true,
		Comment: "dup-check",
	}
	f.NumRegs++

	det := &ir.Instr{
		Op:      ir.OpDetect,
		Type:    ir.Void,
		Dst:     -1,
		Args:    []ir.Operand{ir.Reg(cmp.Dst, ir.I1)},
		Dup:     true,
		Comment: "dup-detect",
	}
	return []*ir.Instr{dup, cmp, det}
}

// ---- inv: known-bits range/invariant check ----

// invDetector checks the statically known bits of a result: bits proven
// always-zero must read zero and bits proven always-one must read one
// (the metamorphic-bounds idea: a cheap invariant the fault-free
// execution always satisfies, violated by corruptions that touch the
// constrained bits). Unlike duplication it does not re-execute the
// instruction, so it is cheap but covers only faults intersecting the
// known mask.
type invDetector struct{}

func (invDetector) Name() string { return "inv" }

// invMasks returns the checkable (zero, one) masks of site id, both
// zero when the invariant check is unavailable there.
func invMasks(fa *analysis.Facts, id int) (zero, one uint64) {
	in := fa.Mod.Instrs[id]
	kb := fa.Known[fa.Mod.Loc(id).Func] // nil unless the function is SSA
	if !Duplicable(fa.Mod, in) || in.Type != ir.I64 || kb == nil {
		return 0, 0
	}
	z, o := kb.Zero[in.Dst], kb.One[in.Dst]
	if z&o != 0 {
		// Contradictory facts mark unreachable code; nothing to check.
		return 0, 0
	}
	return z, o
}

func (invDetector) Applicable(fa *analysis.Facts, id int) bool {
	z, o := invMasks(fa, id)
	return z|o != 0
}

// CostFactor charges the inserted and/compare/detect triple per
// nonzero half, relative to duplication's inserted cycles at the site.
func (invDetector) CostFactor(fa *analysis.Facts, id int) float64 {
	z, o := invMasks(fa, id)
	halves := 0
	if z != 0 {
		halves++
	}
	if o != 0 {
		halves++
	}
	per := float64(ir.OpAnd.Cycles() + ir.OpICmp.Cycles() + ir.OpDetect.Cycles())
	return float64(halves) * per / dupInsertedCycles(fa.Mod.Instrs[id])
}

// Coverage replays the model's deterministic patterns against the known
// masks: an XOR pattern is caught iff it flips a constrained bit, a
// stuck-at-0 iff it clears a known-one bit, a stuck-at-1 iff it sets a
// known-zero bit.
func (invDetector) Coverage(fa *analysis.Facts, id int, m fault.Model) float64 {
	if !m.Class().ValueLocal {
		return 0
	}
	z, o := invMasks(fa, id)
	if z|o == 0 {
		return 0
	}
	pats := m.Patterns(fa.Mod.Instrs[id].Type.Bits(), 64)
	if len(pats) == 0 {
		return 0
	}
	caught := 0
	for _, p := range pats {
		mask := p.Mask
		if mask == 0 {
			mask = 1 << p.Bit
		}
		var hit bool
		switch p.Op {
		case interp.FaultStuckAt0:
			hit = mask&o != 0
		case interp.FaultStuckAt1:
			hit = mask&z != 0
		default: // XOR flip
			hit = mask&(z|o) != 0
		}
		if hit {
			caught++
		}
	}
	return float64(caught) / float64(len(pats))
}

func (invDetector) lower(st *lowerState, fa *analysis.Facts, f *ir.Function, in *ir.Instr) []*ir.Instr {
	z, o := invMasks(fa, in.ID)
	var out []*ir.Instr
	emit := func(mask, want uint64, tag string) {
		and := &ir.Instr{
			Op:   ir.OpAnd,
			Type: ir.I64,
			Dst:  f.NumRegs,
			Args: []ir.Operand{
				ir.Reg(in.Dst, in.Type),
				ir.ConstI(int64(mask)),
			},
			Dup:     true,
			Comment: "inv-" + tag,
		}
		f.NumRegs++
		cmp := &ir.Instr{
			Op:   ir.OpICmp,
			Pred: ir.PredEQ,
			Type: ir.I1,
			Dst:  f.NumRegs,
			Args: []ir.Operand{
				ir.Reg(and.Dst, ir.I64),
				ir.ConstI(int64(want)),
			},
			Dup:     true,
			Comment: "inv-check",
		}
		f.NumRegs++
		det := &ir.Instr{
			Op:      ir.OpDetect,
			Type:    ir.Void,
			Dst:     -1,
			Args:    []ir.Operand{ir.Reg(cmp.Dst, ir.I1)},
			Dup:     true,
			Comment: "inv-detect",
		}
		out = append(out, and, cmp, det)
	}
	if z != 0 {
		emit(z, 0, "zero")
	}
	if o != 0 {
		emit(o, o, "one")
	}
	return out
}

// ---- cfgsig: control-flow edge-signature check ----

// cfgSigDetector protects a comparison feeding a conditional branch by
// recomputing the condition with mirrored operands (a diverse
// re-evaluation) and asserting, on each outgoing edge, that the edge
// taken matches the recomputed signature — a lightweight CFG
// edge-signature check. A corrupted condition diverts the branch onto
// an edge whose assertion then fails.
type cfgSigDetector struct{}

func (cfgSigDetector) Name() string { return "cfgsig" }

// cfgSigSite resolves the protected pattern at id: a same-block ICmp /
// FCmp whose single use is the block's conditional branch, with two
// distinct successors each reachable only through this block (so edge
// assertions cannot run without the signature being computed).
func cfgSigSite(fa *analysis.Facts, id int) (f *ir.Function, br *ir.Instr, ok bool) {
	in := fa.Mod.Instrs[id]
	if in.Op != ir.OpICmp && in.Op != ir.OpFCmp {
		return nil, nil, false
	}
	if !Duplicable(fa.Mod, in) {
		return nil, nil, false
	}
	loc := fa.Mod.Loc(id)
	du := fa.DefUses[loc.Func]
	if !du.SingleAssignment {
		return nil, nil, false
	}
	f = fa.Mod.Funcs[loc.Func]
	uses := du.Uses[in.Dst]
	if len(uses) != 1 {
		return nil, nil, false
	}
	br = uses[0]
	if br.Op != ir.OpCondBr || fa.Mod.Loc(br.ID).Block != loc.Block {
		return nil, nil, false
	}
	if len(br.Succs) != 2 || br.Succs[0] == br.Succs[1] {
		return nil, nil, false
	}
	preds := fa.CFGs[loc.Func].Preds
	if len(preds[br.Succs[0]]) != 1 || len(preds[br.Succs[1]]) != 1 {
		return nil, nil, false
	}
	return f, br, true
}

func (cfgSigDetector) Applicable(fa *analysis.Facts, id int) bool {
	_, _, ok := cfgSigSite(fa, id)
	return ok
}

// CostFactor charges the mirrored compare on every execution plus the
// edge assertion (one detect on the true edge, compare+detect on the
// false edge — averaged), relative to duplication's inserted cycles.
func (cfgSigDetector) CostFactor(fa *analysis.Facts, id int) float64 {
	in := fa.Mod.Instrs[id]
	sig := float64(in.Op.Cycles())
	edge := float64(ir.OpDetect.Cycles())*0.5 +
		float64(ir.OpICmp.Cycles()+ir.OpDetect.Cycles())*0.5
	return (sig + edge) / dupInsertedCycles(in)
}

// Coverage is 1 for value-local models: the result is an i1, every
// model's effect narrows onto bit 0, and a flipped condition is caught
// on whichever edge it diverts the branch to (a narrowed no-op
// perturbation leaves the value — and the outcome — unchanged).
func (cfgSigDetector) Coverage(fa *analysis.Facts, id int, m fault.Model) float64 {
	if !m.Class().ValueLocal {
		return 0
	}
	return 1
}

// mirrorPred returns the predicate computing the same relation with
// swapped operands (EQ/NE are symmetric; orderings reverse). This holds
// for IEEE floats too: the predicates are all "ordered" relations that
// are false when an operand is NaN, symmetrically.
func mirrorPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredLT:
		return ir.PredGT
	case ir.PredLE:
		return ir.PredGE
	case ir.PredGT:
		return ir.PredLT
	case ir.PredGE:
		return ir.PredLE
	default: // EQ, NE
		return p
	}
}

func (cfgSigDetector) lower(st *lowerState, fa *analysis.Facts, f *ir.Function, in *ir.Instr) []*ir.Instr {
	_, br, ok := cfgSigSite(fa, in.ID)
	if !ok {
		return nil
	}
	sig := &ir.Instr{
		Op:      in.Op,
		Pred:    mirrorPred(in.Pred),
		Type:    ir.I1,
		Dst:     f.NumRegs,
		Args:    []ir.Operand{in.Args[1], in.Args[0]},
		Dup:     true,
		Comment: "cfgsig",
	}
	f.NumRegs++

	// True edge: the signature must be true; detect halts on false.
	st.atBlockHead(fa.Mod.Loc(in.ID).Func, br.Succs[0], []*ir.Instr{{
		Op:      ir.OpDetect,
		Type:    ir.Void,
		Dst:     -1,
		Args:    []ir.Operand{ir.Reg(sig.Dst, ir.I1)},
		Dup:     true,
		Comment: "cfgsig-true",
	}})

	// False edge: the signature must be false.
	inv := &ir.Instr{
		Op:   ir.OpICmp,
		Pred: ir.PredEQ,
		Type: ir.I1,
		Dst:  f.NumRegs,
		Args: []ir.Operand{
			ir.Reg(sig.Dst, ir.I1),
			ir.ConstB(false),
		},
		Dup:     true,
		Comment: "cfgsig-neg",
	}
	f.NumRegs++
	st.atBlockHead(fa.Mod.Loc(in.ID).Func, br.Succs[1], []*ir.Instr{inv, {
		Op:      ir.OpDetect,
		Type:    ir.Void,
		Dst:     -1,
		Args:    []ir.Operand{ir.Reg(inv.Dst, ir.I1)},
		Dup:     true,
		Comment: "cfgsig-false",
	}})
	return []*ir.Instr{sig}
}
