package sid

import (
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Duplicate returns a protected clone of m in which every selected
// instruction D is followed by a fresh copy D_dup computing the same value
// into a new register, a bitwise comparison of the two results, and a
// detector that halts with a Detected outcome on mismatch (paper Fig. 1c).
// The code protecting a block's leading phis follows the whole phi group,
// so the group keeps its parallel semantics.
//
// Because a transient fault affects a single dynamic instruction, the
// immediate re-execution is fault-free: a fault in either D or D_dup makes
// the comparison fail and is detected before it can propagate past the
// next synchronization point. The inserted instructions are marked Dup so
// analyses can distinguish protection code from program code.
//
// The returned module is finalized; instruction IDs of original
// instructions change (insertions shift the numbering), so callers must
// not mix pre- and post-transform IDs. ProtectedMap reports the mapping.
// Duplicate is LowerSelection with duplication at every chosen site.
func Duplicate(m *ir.Module, chosen []int) *ir.Module {
	return LowerSelection(m, Selection{Chosen: chosen})
}

// ProtectedMap maps each original-module instruction ID to its ID in the
// protected module produced by Duplicate with the same chosen set.
func ProtectedMap(orig *ir.Module, chosen []int) map[int]int {
	return InstrMap(orig, Duplicate(orig, chosen))
}

// Protect measures, selects, and transforms in one step: the full baseline
// SID pipeline on a single reference input.
type Protect struct {
	Module    *ir.Module   // protected module
	Selection Selection    // the instruction selection on the original module
	Meas      *Measurement // reference-input measurement
}

// Apply runs baseline SID end to end at the given protection level.
func Apply(m *ir.Module, bind interp.Binding, cfg Config, level float64, method Method) (*Protect, error) {
	meas, err := Measure(m, bind, cfg)
	if err != nil {
		return nil, err
	}
	sel := Select(m, meas, level, method)
	prot := Duplicate(m, sel.Chosen)
	return &Protect{Module: prot, Selection: sel, Meas: meas}, nil
}

// EvaluateCoverage injects n program-level faults into the protected
// module under one input and returns the measured campaign result. The
// golden execution of the protected module is computed internally (its
// output must match the unprotected program's: duplication preserves
// semantics).
func EvaluateCoverage(protected *ir.Module, bind interp.Binding, cfg Config, n int, seed int64) (fault.CampaignResult, error) {
	golden, err := cfg.Cache.Golden(protected, bind, cfg.Exec, cfg.Metrics)
	if err != nil {
		return fault.CampaignResult{}, err
	}
	c := &fault.Campaign{Mod: protected, Bind: bind, Cfg: cfg.Exec, Golden: golden,
		Workers: cfg.Workers, Model: cfg.Model, Metrics: cfg.Metrics}
	return c.Run(n, seed), nil
}

// DuplicatedDynFraction returns the fraction of dynamic instructions of
// one execution that belong to instructions selected for duplication —
// the actual protection level achieved on that input (§VIII-A). prof must
// be a profile of the *original* module under the input, and chosen the
// selection on the original module.
func DuplicatedDynFraction(m *ir.Module, prof *interp.Profile, chosen []int) float64 {
	chosenSet := make(map[int]bool, len(chosen))
	for _, id := range chosen {
		chosenSet[id] = true
	}
	var total, dup int64
	for id, c := range prof.InstrCount {
		total += c
		if chosenSet[id] {
			dup += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dup) / float64(total)
}

// FullDuplication returns a clone of m with every duplicable instruction
// protected — the classic full-DMR scheme of the paper's Fig. 1(b). It is
// the coverage upper bound SID trades against: near-complete detection at
// roughly doubled execution cost.
func FullDuplication(m *ir.Module) *ir.Module {
	var all []int
	for _, in := range m.Instrs {
		if Duplicable(m, in) {
			all = append(all, in.ID)
		}
	}
	return Duplicate(m, all)
}
