package sid

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// StaticSDCProb scores every instruction of m with the static
// error-propagation graph (analysis v2): per site, the propagation
// score combines the sound masking/detection bounds (demanded bits,
// value-range absorption, provable detection) with a def-use walk to
// the site's observable sinks. The static-rank experiment
// (cmd/experiments -exp static-rank) measures how well it ranks sites
// against fault-injection ground truth.
//
// Modules the analysis framework cannot certify (non-SSA register
// reuse) fall back to HeuristicSDCProb, which needs no SSA facts.
func StaticSDCProb(m *ir.Module) []float64 {
	fa := analysis.FactsFor(m)
	if !fa.SingleAssignment {
		return HeuristicSDCProb(m)
	}
	out := make([]float64, m.NumInstrs())
	for id := range out {
		s := fa.Prop.Score[id]
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		out[id] = s
	}
	return out
}
