package interp_test

import (
	"math/rand"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
)

// The model differential suite extends the engine pinning to every
// registered fault model: sampled sites perturbed by each model, and each
// model's deterministic pattern set replayed at a fixed site, must behave
// bit-identically under the legacy and compiled engines. This is what
// lets a new model trust both engines the day it registers.

// modelDiffBenchmarks keeps the sweep affordable: the full model × engine
// product on a couple of structurally different programs.
func modelDiffBenchmarks(t *testing.T) []*benchprog.Benchmark {
	all := benchprog.Eleven()
	if testing.Short() {
		return all[:1]
	}
	return all[:3]
}

// TestEngineDifferentialModels draws random sites under every registered
// model and pins the compiled engine to the legacy stepper for each.
func TestEngineDifferentialModels(t *testing.T) {
	nSites := 4
	if testing.Short() {
		nSites = 1
	}
	for _, mn := range fault.ModelNames() {
		model, ok := fault.ModelByName(mn)
		if !ok {
			t.Fatalf("registered model %q not resolvable", mn)
		}
		mn, model := mn, model
		t.Run(mn, func(t *testing.T) {
			t.Parallel()
			for _, b := range modelDiffBenchmarks(t) {
				m := b.MustModule()
				bind := b.Bind(b.Reference)
				cfg := b.ExecConfig()
				cfg.Engine = interp.EngineLegacy
				g, err := fault.RunGolden(m, bind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := fault.NewSampler(m, g, false)
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < nSites; i++ {
					f, ok := s.RandomSiteModel(model, rng)
					if !ok {
						t.Fatal("no injectable sites")
					}
					diffRun(t, mn+"/"+b.Name, m, bind, b.ExecConfig(), &f)
				}
			}
		})
	}
}

// TestEngineDifferentialModelPatterns replays every enumerated effect of
// every model at a fixed early site, so each (op, mask shape) the model
// can emit crosses both flip paths at least once — including shapes
// a handful of random draws could miss (high stuck-at masks, shifted
// defect lanes).
func TestEngineDifferentialModelPatterns(t *testing.T) {
	b := modelDiffBenchmarks(t)[0]
	m := b.MustModule()
	bind := b.Bind(b.Reference)
	cfg := b.ExecConfig()
	cfg.Engine = interp.EngineLegacy
	g, err := fault.RunGolden(m, bind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First executed injectable instruction: patterns land deterministically
	// at its dynamic instance 0.
	site := -1
	for id, in := range m.Instrs {
		if in.IsInjectable() && g.Profile.InstrCount[id] > 0 {
			site = id
			break
		}
	}
	if site < 0 {
		t.Fatal("no executed injectable instruction")
	}
	width := m.Instrs[site].Type.Bits()
	maxPat := 8
	if testing.Short() {
		maxPat = 2
	}
	for _, mn := range fault.ModelNames() {
		model, _ := fault.ModelByName(mn)
		pats := model.Patterns(width, maxPat)
		if len(pats) == 0 {
			t.Fatalf("model %s enumerates no patterns at width %d", mn, width)
		}
		for _, e := range pats {
			f := &interp.Fault{InstrID: site, DynIndex: 0,
				Bit: e.Bit, Mask: e.Mask, Op: e.Op}
			diffRun(t, mn+"/pattern", m, bind, b.ExecConfig(), f)
		}
	}
}
