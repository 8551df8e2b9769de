package fault

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
)

// TrueCoverageResult reports an SDC-coverage measurement in the paper's
// sense: of the faults that cause an SDC in the *unprotected* program, the
// fraction the protected program detects.
type TrueCoverageResult struct {
	Trials    int64 // faults sampled on the unprotected program
	SDCFaults int64 // of those, how many corrupted the unprotected output
	Mitigated int64 // of the SDC faults, how many the protection detected
	Unprotect CampaignResult
}

// Coverage returns Mitigated / SDCFaults; ok is false when no SDC fault
// was observed (coverage undefined for this input).
func (r TrueCoverageResult) Coverage() (float64, bool) {
	if r.SDCFaults == 0 {
		return 0, false
	}
	return float64(r.Mitigated) / float64(r.SDCFaults), true
}

// TrueCoverage measures the SDC coverage of a protected program exactly as
// the paper defines it (§II-A: "the percentage of SDCs that has been
// mitigated by a used protection technique"):
//
//  1. sample n fault sites uniformly over the dynamic instructions of the
//     ORIGINAL program and classify each outcome there;
//  2. replay every SDC-producing site against the PROTECTED program (the
//     duplication transform preserves the dynamic behavior of original
//     instructions, so (instruction, occurrence, bit) identifies the same
//     physical fault — idMap translates static instruction IDs);
//  3. coverage = detected replays / SDC sites.
//
// This avoids the inflation a protected-program-only campaign suffers,
// where detections of faults that would have been masked anyway count as
// coverage.
func TrueCoverage(orig, prot *ir.Module, idMap map[int]int, bind interp.Binding,
	exec interp.Config, n int, seed int64, workers int) (TrueCoverageResult, error) {
	return TrueCoverageOpts(orig, prot, idMap, bind, exec, CoverageOptions{
		Trials: n, Seed: seed, Workers: workers,
	})
}

// CoverageOptions bundles the knobs of a TrueCoverage measurement. Cache,
// if non-nil, memoizes the golden runs and the phase-1 unprotected-program
// campaign: evaluating several protections of the same program under the
// same input at the same (Trials, Seed) then shares one site sample and
// one set of unprotected outcomes instead of re-executing them. Metrics,
// if non-nil, receives the campaign accounting.
type CoverageOptions struct {
	Trials  int
	Seed    int64
	Workers int
	// Model selects the fault model for both campaign phases; nil means
	// the paper's single-bit flip.
	Model   Model
	Cache   *Cache
	Metrics *PhaseMetrics
	// Obs, if non-nil, is threaded into both campaigns (observational).
	Obs *obs.Obs
}

// TrueCoverageOpts is TrueCoverage with memoization and metrics.
func TrueCoverageOpts(orig, prot *ir.Module, idMap map[int]int, bind interp.Binding,
	exec interp.Config, opt CoverageOptions) (TrueCoverageResult, error) {

	goldenO, err := opt.Cache.Golden(orig, bind, exec, opt.Metrics)
	if err != nil {
		return TrueCoverageResult{}, fmt.Errorf("fault: original golden: %w", err)
	}

	// Phase 1: campaign on the original program (memoized: identical for
	// every protection of the same original under this input and seed).
	campO := &Campaign{Mod: orig, Bind: bind, Cfg: exec, Golden: goldenO,
		Workers: opt.Workers, Model: opt.Model, Metrics: opt.Metrics, Obs: opt.Obs}
	sites, outcomesO, shortfall := opt.Cache.unprotectedCampaign(campO, true, opt.Trials, opt.Seed)
	campO.Metrics.AddShortfall(shortfall)
	return ReplayCoverage(prot, idMap, bind, exec, opt, sites, outcomesO, int64(opt.Trials), shortfall)
}

// ReplayCoverage finishes a true-coverage measurement from an explicit
// phase-1 sample: the sites drawn on the ORIGINAL program and their
// outcomes there. SDC sites are replayed against the protected program.
// The sectional (incremental) pipeline composes its per-section campaign
// slices into exactly this shape, so composed and whole-program
// coverage measurements share one phase-2 implementation by
// construction.
func ReplayCoverage(prot *ir.Module, idMap map[int]int, bind interp.Binding,
	exec interp.Config, opt CoverageOptions, sites []interp.Fault, outcomesO []Outcome,
	requested, shortfall int64) (TrueCoverageResult, error) {

	goldenP, err := opt.Cache.Golden(prot, bind, exec, opt.Metrics)
	if err != nil {
		return TrueCoverageResult{}, fmt.Errorf("fault: protected golden: %w", err)
	}

	res := TrueCoverageResult{Trials: int64(len(sites))}
	res.Unprotect.Requested = requested
	res.Unprotect.Shortfall = shortfall
	var replay []interp.Fault
	for i, o := range outcomesO {
		res.Unprotect.Add(o)
		if o != OutcomeSDC {
			continue
		}
		res.SDCFaults++
		s := sites[i]
		newID, ok := idMap[s.InstrID]
		if !ok {
			return TrueCoverageResult{}, fmt.Errorf("fault: no protected mapping for instr %d", s.InstrID)
		}
		// Carry the full effect (Bit, Mask, Op): non-default models
		// perturb via masks and stuck-at ops, and the replay must be the
		// same physical fault at the translated static ID.
		replay = append(replay, interp.Fault{InstrID: newID, DynIndex: s.DynIndex,
			Bit: s.Bit, Mask: s.Mask, Op: s.Op})
	}

	// Phase 2: replay SDC sites against the protected program. Only
	// Detected replays count, and a replay at an unguarded instruction
	// (analysis.ProofUnguarded) cannot be Detected: it is counted not
	// mitigated without running it.
	campP := &Campaign{Mod: prot, Bind: bind, Cfg: exec, Golden: goldenP,
		Workers: opt.Workers, Model: opt.Model, Metrics: opt.Metrics, Obs: opt.Obs}
	m := campP.model()
	cl, tri := m.Class(), analysis.TriageFor(prot)
	kept := replay[:0]
	for _, s := range replay {
		if !tri.Unguarded(cl, s.InstrID) {
			kept = append(kept, s)
		}
	}
	if n := int64(len(replay) - len(kept)); n > 0 {
		opt.Metrics.AddPruned(m.Name(), n)
		opt.Metrics.AddPrunedProof(analysis.ProofUnguarded.String(), n)
	}
	outcomesP := campP.runSites(kept)
	for _, o := range outcomesP {
		if o == OutcomeDetected {
			res.Mitigated++
		}
	}
	return res, nil
}
