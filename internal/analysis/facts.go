package analysis

import (
	"sync/atomic"

	"repro/internal/ir"
)

// Facts bundles every per-function and module-level analysis result
// for one finalized module snapshot: CFGs, def-use chains, known bits,
// value ranges, provenance/memory-SSA, demanded bits, detection facts,
// and range-masked bits. The bundle is immutable after construction and
// shared by every consumer — Triage, the sid detectors and heuristics,
// reports, and the -analyze CLI all hit the same memoized instance, so
// the underlying analyses run exactly once per module snapshot
// (factsBuilds counts them; the single-build test asserts it).
type Facts struct {
	Mod *ir.Module

	// SingleAssignment: every function is in single-assignment register
	// form. When false, only the per-function structural facts (CFGs,
	// DefUses, and Known of the single-assignment functions) are
	// populated; the module-level analyses would be unsound and Triage
	// is inert.
	SingleAssignment bool

	// Per-function, indexed by function index. Known[fi] is nil when
	// function fi is not in single-assignment form.
	CFGs    []*CFG
	DefUses []*DefUse
	Known   []*KnownBits
	Ranges  []*ValueRanges

	// Module-level.
	Pts    *PointsTo
	Mem    *MemSSA
	DS     *DeadStores
	Dem    *Demand
	Detect detectFacts

	// RangeMasked[id]: demanded result bits of instruction id whose
	// single-bit flip every use provably absorbs (rangemask.go).
	RangeMasked []uint64
}

// factsBuilds counts buildFacts invocations (observability for the
// single-build test; see export_test.go).
var factsBuilds atomic.Int64

type factsKey struct{}

// FactsFor returns the memoized fact bundle of m's current finalized
// snapshot, computing it on first use. Modules are analyzed at most
// once per Finalize generation.
func FactsFor(m *ir.Module) *Facts {
	return ir.Derived(m, factsKey{}, buildFacts)
}

// buildFacts runs every analysis over m in dependency order.
func buildFacts(m *ir.Module) *Facts {
	factsBuilds.Add(1)
	fa := &Facts{
		Mod:              m,
		SingleAssignment: true,
		CFGs:             make([]*CFG, len(m.Funcs)),
		DefUses:          make([]*DefUse, len(m.Funcs)),
		Known:            make([]*KnownBits, len(m.Funcs)),
	}
	for fi, f := range m.Funcs {
		fa.CFGs[fi] = BuildCFG(f)
		fa.DefUses[fi] = BuildDefUse(f)
		if fa.DefUses[fi].SingleAssignment {
			fa.Known[fi] = BuildKnownBits(f, fa.CFGs[fi])
		} else {
			fa.SingleAssignment = false
		}
	}
	if !fa.SingleAssignment {
		return fa
	}

	fa.Ranges = make([]*ValueRanges, len(m.Funcs))
	for fi, f := range m.Funcs {
		fa.Ranges[fi] = BuildRanges(f, fa.CFGs[fi], fa.DefUses[fi])
	}
	fa.Pts = BuildPointsTo(m)
	fa.Mem = BuildMemSSA(m, fa.Pts)
	fa.DS = buildDeadStoresPts(m, fa.Pts, fa.Mem)
	fa.Dem = BuildDemand(m, fa.DS)
	fa.Detect = buildDetectFacts(m)
	fa.RangeMasked = buildRangeMask(m, fa.DefUses, fa.Ranges, fa.Dem, fa.DS)
	return fa
}
