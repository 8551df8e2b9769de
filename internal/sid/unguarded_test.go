package sid

// Differential enforcement of analysis.ProofUnguarded, the proof phase 2
// of a true-coverage measurement (fault.ReplayCoverage) uses to skip
// replays no duplication check can catch. The oracle re-injects every
// replay the proof lets phase 2 skip, under the legacy engine and every
// fault model, on seeded partial protections of every benchmark; none
// may come back Detected. Protections with other detectors, and modules
// the analysis cannot certify, must let the proof skip nothing.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/passes"
)

// TestUnguardedReplayOracle runs phase 1 of a true-coverage measurement
// on each benchmark under each fault model and replays every SDC site on
// a seeded half-duplicated module with nothing skipped: no replay the
// unguarded proof skips may come back Detected, and fault.ReplayCoverage,
// which skips them, must count exactly the Detected replays.
func TestUnguardedReplayOracle(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 20
	}
	for bi, b := range benchprog.All() {
		t.Run(b.Name, func(t *testing.T) {
			m := b.MustModule()
			bind := b.Bind(b.Reference)
			cfg := b.ExecConfig()
			cfg.Engine = interp.EngineLegacy
			rng := rand.New(rand.NewSource(int64(17 + bi)))
			var chosen []int
			for _, in := range m.Instrs {
				if Duplicable(m, in) && rng.Intn(2) == 0 {
					chosen = append(chosen, in.ID)
				}
			}
			prot := Duplicate(m, chosen)
			ids := InstrMap(m, prot)
			tri := analysis.TriageFor(prot)
			goldenO, err := fault.RunGolden(m, bind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			goldenP, err := fault.RunGolden(prot, bind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sampler := fault.NewSampler(m, goldenO, true)
			var skipped int64
			for _, mn := range fault.ModelNames() {
				model, _ := fault.ModelByName(mn)
				var sites []interp.Fault
				for range trials {
					if s, ok := sampler.RandomSiteModel(model, rng); ok {
						sites = append(sites, s)
					}
				}
				orig := &fault.Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: goldenO,
					Model: model, Triage: fault.TriageOff}
				outcomes := orig.RunSites(sites)
				var replay []interp.Fault
				for i, o := range outcomes {
					if o == fault.OutcomeSDC {
						s := sites[i]
						s.InstrID = ids[s.InstrID]
						replay = append(replay, s)
					}
				}
				camp := &fault.Campaign{Mod: prot, Bind: bind, Cfg: cfg, Golden: goldenP,
					Model: model, Triage: fault.TriageOff}
				var detected int64
				for i, o := range camp.RunSites(replay) {
					if o != fault.OutcomeDetected {
						continue
					}
					detected++
					if s := replay[i]; tri.Unguarded(model.Class(), s.InstrID) {
						t.Errorf("UNSOUND unguarded under %s: [%d] %s bit %d mask %#x op %v dyn %d detected",
							mn, s.InstrID, prot.Instrs[s.InstrID].Op, s.Bit, s.Mask, s.Op, s.DynIndex)
					}
				}
				pm := fault.NewMetrics().Phase("eval")
				got, err := fault.ReplayCoverage(prot, ids, bind, cfg,
					fault.CoverageOptions{Model: model, Workers: 1, Metrics: pm},
					sites, outcomes, int64(trials), 0)
				if err != nil {
					t.Fatal(err)
				}
				if got.Mitigated != detected {
					t.Errorf("%s: ReplayCoverage mitigated %d of %d, full replay detected %d",
						mn, got.Mitigated, got.SDCFaults, detected)
				}
				skipped += pm.Snapshot().PrunedByProof[analysis.ProofUnguarded.String()]
			}
			if skipped == 0 {
				t.Errorf("no replay skipped on a half-duplicated module")
			}
		})
	}
}

// TestUnguardedNeedsDupOnlyProtection pins the proof's preconditions:
// protections using inv or cfgsig code, alone or mixed with
// duplication, and modules not in single-assignment form, leave no
// instruction unguarded, while the dup-only protection of the same
// module does.
func TestUnguardedNeedsDupOnlyProtection(t *testing.T) {
	m, err := minicc.Compile("dk.mc", detKernelSrc) // every detector applies somewhere
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Optimize(m); err != nil {
		t.Fatal(err)
	}
	fa := analysis.FactsFor(m)
	unguarded := func(prot *ir.Module) int {
		tri := analysis.TriageFor(prot)
		n := 0
		for _, in := range prot.Instrs {
			if tri.Unguarded(analysis.DefaultFaultClass, in.ID) {
				n++
			}
		}
		return n
	}
	lower := func(spec string) *ir.Module {
		port, err := ParsePortfolio(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sel Selection
		used := map[string]bool{}
		for _, in := range m.Instrs {
			// The last applicable detector wins, so mixes fall back to
			// duplication only where the other detectors do not apply.
			for k := range port {
				if d := port[len(port)-1-k]; d.Applicable(fa, in.ID) {
					sel.Chosen = append(sel.Chosen, in.ID)
					sel.Detectors = append(sel.Detectors, d.Name())
					used[d.Name()] = true
					break
				}
			}
		}
		if len(used) != len(port) {
			t.Fatalf("%s: only %v applied", spec, used)
		}
		return LowerSelection(m, sel)
	}
	if n := unguarded(lower("dup")); n == 0 {
		t.Fatal("dup-only protection left nothing unguarded")
	}
	for _, spec := range []string{"inv", "cfgsig", "dup,inv", "dup,cfgsig", "all"} {
		if n := unguarded(lower(spec)); n != 0 {
			t.Errorf("%s protection: %d instructions unguarded, want 0", spec, n)
		}
	}

	raw, err := minicc.Compile("k.mc", kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	id := slices.IndexFunc(raw.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpAdd })
	loc := raw.Loc(id)
	blk := raw.Funcs[loc.Func].Blocks[loc.Block]
	blk.Instrs = slices.Insert(blk.Instrs, loc.Pos+1, raw.Instrs[id].Clone())
	raw.Finalize()
	if analysis.FactsFor(raw).SingleAssignment {
		t.Fatal("module still in single-assignment form")
	}
	if n := unguarded(FullDuplication(raw)); n != 0 {
		t.Errorf("non-SSA module: %d instructions unguarded, want 0", n)
	}
}

// TestReplayGoldenOnlyWhenNeeded pins when phase 2 of a true-coverage
// measurement runs the protected module's golden run: only when a replay
// survives static pruning. On a fully duplicated module every bit-flip
// replay is pruned (dup-detected or unguarded) and no golden run is
// recorded; stuck-at replays at duplicated instructions, which no
// detection proof covers, still execute against one.
func TestReplayGoldenOnlyWhenNeeded(t *testing.T) {
	b, ok := benchprog.ByName("knn")
	if !ok {
		t.Fatal("knn benchmark missing")
	}
	m := b.MustModule()
	bind := b.Bind(b.Reference)
	cfg := b.ExecConfig()
	prot := FullDuplication(m)
	ids := InstrMap(m, prot)
	goldenO, err := fault.RunGolden(m, bind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler := fault.NewSampler(m, goldenO, true)
	for _, tc := range []struct {
		model      string
		goldenRuns int64
	}{{"bitflip", 0}, {"stuckat1", 1}} {
		model, ok := fault.ModelByName(tc.model)
		if !ok {
			t.Fatalf("model %s missing", tc.model)
		}
		rng := rand.New(rand.NewSource(3))
		var sites []interp.Fault
		for range 150 {
			if s, ok := sampler.RandomSiteModel(model, rng); ok {
				sites = append(sites, s)
			}
		}
		orig := &fault.Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: goldenO, Model: model}
		outcomes := orig.RunSites(sites)
		pm := fault.NewMetrics().Phase("eval")
		res, err := fault.ReplayCoverage(prot, ids, bind, cfg,
			fault.CoverageOptions{Model: model, Workers: 1, Metrics: pm},
			sites, outcomes, int64(len(sites)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.SDCFaults == 0 {
			t.Fatalf("%s: no SDC site to replay", tc.model)
		}
		s := pm.Snapshot()
		if s.GoldenRuns != tc.goldenRuns {
			t.Errorf("%s: %d protected golden runs, want %d", tc.model, s.GoldenRuns, tc.goldenRuns)
		}
		if executed := s.Trials > 0; executed != (tc.goldenRuns > 0) {
			t.Errorf("%s: %d replays executed with %d golden runs", tc.model, s.Trials, s.GoldenRuns)
		}
		if tc.goldenRuns == 0 && s.Pruned != res.SDCFaults {
			t.Errorf("%s: %d of %d replays pruned, want all", tc.model, s.Pruned, res.SDCFaults)
		}
	}
}
