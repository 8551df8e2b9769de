package sid

// Differential enforcement of the analysis-v2 triage proof classes on
// duplication-protected modules, across every benchmark and fault model.
// Three properties, matching the soundness contract in DESIGN.md §14:
//
//  1. every site triage newly prunes — ProvablyDetected (dup-detected)
//     or ProvablyMasked via the v2 proofs (range-masked,
//     store-shadowed) — is re-injected for real under the legacy
//     engine and must produce exactly the predicted outcome;
//  2. on full-DMR modules the v2 proof classes prune trials the PR-4
//     baseline (dead-value / masked-bits / dead-store only) had to
//     execute, on a majority of benchmarks, with the per-proof-class
//     accounting surfaced in PhaseMetrics;
//  3. triage never changes results: pruning campaigns return
//     bit-identical CampaignResults to unpruned ones at the same seed
//     for every execution engine and every fault model.
//
// These tests live in package sid (not fault) because building the
// protected modules needs FullDuplication and fault already sits below
// sid in the import graph.

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
)

// isNewMaskedProof reports whether a masking proof is one of the
// analysis-v2 classes absent from the PR-4 triage.
func isNewMaskedProof(p analysis.Proof) bool {
	return p == analysis.ProofRangeMasked || p == analysis.ProofStoreShadowed
}

// TestDetectProofDifferential re-injects, per benchmark and per fault
// model, the sites the v2 triage prunes without execution and checks
// the real (legacy-engine, TriageOff) outcome equals the prediction:
// OutcomeDetected for dup-detected sites, OutcomeBenign for
// range-masked and store-shadowed sites.
func TestDetectProofDifferential(t *testing.T) {
	maxPerKind := 12
	if testing.Short() {
		maxPerKind = 4
	}
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prot := FullDuplication(b.MustModule())
			bind := b.Bind(b.Reference)
			cfg := b.ExecConfig()
			cfg.Engine = interp.EngineLegacy
			golden, err := fault.RunGolden(prot, bind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tri := analysis.TriageFor(prot)
			camp := &fault.Campaign{Mod: prot, Bind: bind, Cfg: cfg,
				Golden: golden, Triage: fault.TriageOff}

			for _, mn := range fault.ModelNames() {
				model, _ := fault.ModelByName(mn)
				cl := model.Class()
				rng := rand.New(rand.NewSource(7))
				var detect, masked []interp.Fault
				for _, in := range prot.Instrs {
					if !in.IsInjectable() || golden.Profile.InstrCount[in.ID] == 0 {
						continue
					}
					for _, e := range model.Patterns(in.Type.Bits(), 3) {
						v, pf := tri.ClassifyFor(cl, in.ID, e.Bit, e.Mask)
						site := interp.Fault{
							InstrID:  in.ID,
							DynIndex: rng.Int63n(golden.Profile.InstrCount[in.ID]),
							Bit:      e.Bit, Mask: e.Mask, Op: e.Op,
						}
						switch {
						case v == analysis.VerdictProvablyDetected:
							detect = append(detect, site)
						case v == analysis.VerdictProvablyMasked && isNewMaskedProof(pf):
							masked = append(masked, site)
						}
					}
				}
				sample := func(sites []interp.Fault) []interp.Fault {
					if len(sites) > maxPerKind {
						rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
						sites = sites[:maxPerKind]
					}
					return sites
				}
				detect, masked = sample(detect), sample(masked)
				if cl.AlwaysFlips && len(detect) == 0 {
					t.Errorf("%s: no ProvablyDetected site on a full-DMR module", mn)
				}
				for i, o := range camp.RunSites(detect) {
					if o != fault.OutcomeDetected {
						s := detect[i]
						t.Errorf("UNSOUND dup-detect under %s: [%d] %s bit %d mask %#x dyn %d -> %s",
							mn, s.InstrID, prot.Instrs[s.InstrID].Op, s.Bit, s.Mask, s.DynIndex, o)
					}
				}
				for i, o := range camp.RunSites(masked) {
					if o != fault.OutcomeBenign {
						s := masked[i]
						t.Errorf("UNSOUND v2 mask under %s: [%d] %s bit %d mask %#x dyn %d -> %s",
							mn, s.InstrID, prot.Instrs[s.InstrID].Op, s.Bit, s.Mask, s.DynIndex, o)
					}
				}
			}
		})
	}
}

// TestTriagePrunesNewProofClassesAcrossBenchmarks runs a pruning
// campaign on every benchmark's full-DMR module and requires the v2
// proof classes to account for pruned trials on a majority of the
// suite — the sites a PR-4 triage (whole-value and known-bits proofs
// only) had to execute. The per-class counts come from the campaign's
// own PhaseMetrics, so the accounting path is exercised end to end.
func TestTriagePrunesNewProofClassesAcrossBenchmarks(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 40
	}
	benches := benchprog.All()
	newClassBenches := 0
	for _, b := range benches {
		prot := FullDuplication(b.MustModule())
		bind := b.Bind(b.Reference)
		cfg := b.ExecConfig()
		golden, err := fault.RunGolden(prot, bind, cfg)
		if err != nil {
			t.Fatalf("%s: golden: %v", b.Name, err)
		}
		pm := fault.NewMetrics().Phase(b.Name)
		camp := &fault.Campaign{Mod: prot, Bind: bind, Cfg: cfg,
			Golden: golden, Triage: fault.TriageAuto, Metrics: pm}
		camp.Run(trials, 42)
		snap := pm.Snapshot()
		var fromNew int64
		for proof, n := range snap.PrunedByProof {
			switch proof {
			case analysis.ProofDupDetected.String(),
				analysis.ProofRangeMasked.String(),
				analysis.ProofStoreShadowed.String():
				fromNew += n
			}
		}
		if fromNew > 0 {
			newClassBenches++
		}
		t.Logf("%s: pruned %d/%d trials, %d via v2 proofs (%v)",
			b.Name, snap.Pruned, trials, fromNew, snap.PrunedByProof)
	}
	if want := (len(benches) + 1) / 2; newClassBenches < want {
		t.Errorf("v2 proof classes pruned trials on %d of %d benchmarks, want >= %d",
			newClassBenches, len(benches), want)
	}
}

// TestProtectedTriageEquivalenceEnginesModels pins result purity on a
// protected module: for every execution engine and every fault model, a
// TriageAuto campaign returns a CampaignResult bit-identical to the
// TriageOff campaign at the same seed. Detection pruning makes this the
// sharpest version of the equivalence — a dup-detected site counted
// without execution must match what the detector would really report.
func TestProtectedTriageEquivalenceEnginesModels(t *testing.T) {
	var bench *benchprog.Benchmark
	for _, b := range benchprog.All() {
		if b.Name == "pathfinder" {
			bench = b
		}
	}
	prot := FullDuplication(bench.MustModule())
	bind := bench.Bind(bench.Reference)
	engines := map[string]interp.Engine{
		"legacy":   interp.EngineLegacy,
		"compiled": interp.EngineCompiled,
	}
	trials := 60
	if testing.Short() {
		trials = 20
	}
	for en, eng := range engines {
		cfg := bench.ExecConfig()
		cfg.Engine = eng
		golden, err := fault.RunGolden(prot, bind, cfg)
		if err != nil {
			t.Fatalf("%s: golden: %v", en, err)
		}
		for _, mn := range fault.ModelNames() {
			model, _ := fault.ModelByName(mn)
			t.Run(en+"/"+mn, func(t *testing.T) {
				on := &fault.Campaign{Mod: prot, Bind: bind, Cfg: cfg,
					Golden: golden, Model: model, Triage: fault.TriageAuto}
				off := &fault.Campaign{Mod: prot, Bind: bind, Cfg: cfg,
					Golden: golden, Model: model, Triage: fault.TriageOff}
				if ron, roff := on.Run(trials, 42), off.Run(trials, 42); ron != roff {
					t.Fatalf("triage changed the %s/%s campaign result:\n  on:  %+v\n  off: %+v",
						en, mn, ron, roff)
				}
			})
		}
	}
}
