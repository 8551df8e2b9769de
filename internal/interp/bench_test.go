package interp_test

import (
	"sort"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/interp"
)

// Microbenchmarks for the three run modes (plain, profiled, fault-armed),
// each under the legacy reference stepper and the compiled engine.
// `make bench` runs these and appends the results to BENCH_interp.json so
// engine regressions are visible across commits.

func benchSetup(b *testing.B) (map[string]*interp.Runner, interp.Binding, *benchprog.Benchmark) {
	b.Helper()
	bm, ok := benchprog.ByName("hpccg")
	if !ok {
		b.Fatal("hpccg benchmark missing")
	}
	m := bm.MustModule()
	runners := make(map[string]*interp.Runner, 2)
	for _, eng := range []interp.Engine{interp.EngineLegacy, interp.EngineCompiled} {
		cfg := bm.ExecConfig()
		cfg.Engine = eng
		runners[eng.String()] = interp.NewRunner(m, cfg)
	}
	return runners, bm.Bind(bm.Reference), bm
}

var benchEngines = []string{"legacy", "compiled"}

func BenchmarkRunPlain(b *testing.B) {
	runners, bind, bm := benchSetup(b)
	for _, eng := range benchEngines {
		b.Run(eng, func(b *testing.B) { benchRunBound(b, runners[eng], bind, nil, false, bm) })
	}
}

func BenchmarkRunProfiled(b *testing.B) {
	runners, bind, bm := benchSetup(b)
	for _, eng := range benchEngines {
		b.Run(eng, func(b *testing.B) { benchRunBound(b, runners[eng], bind, nil, true, bm) })
	}
}

func BenchmarkRunFault(b *testing.B) {
	runners, bind, bm := benchSetup(b)
	// A late never-matching site: the fault loop pays its per-instruction
	// arming cost for the whole run without perturbing execution.
	f := &interp.Fault{InstrID: 0, DynIndex: 1 << 40, Bit: 3}
	for _, eng := range benchEngines {
		b.Run(eng, func(b *testing.B) { benchRunBound(b, runners[eng], bind, f, false, bm) })
	}
}

// BenchmarkRunFaultCheckpointed is BenchmarkRunFault for a trial resumed
// from a golden checkpoint, the way campaigns run their trials. In
// /compiled the site is the middle instance of the hottest instruction
// whose bit-0 flip persists to the end of a full-length run, so the
// trial never converges and runs the whole suffix after its restore
// point. In /converged a zero-mask stuck-at at the hottest instruction's
// middle instance leaves the value unchanged, so the trial converges at
// the next checkpoint and ends there. ns/instr divides by the full
// dynamic count, so it reads as the whole trial's cost per instruction
// of a run from the start.
func BenchmarkRunFaultCheckpointed(b *testing.B) {
	bm, ok := benchprog.ByName("hpccg")
	if !ok {
		b.Fatal("hpccg benchmark missing")
	}
	m, bind := bm.MustModule(), bm.Bind(bm.Reference)
	prof := interp.NewProfile(m)
	golden := interp.NewRunner(m, bm.ExecConfig()).Run(bind, nil, prof)
	byCount := m.InjectableIDs(false)
	sort.SliceStable(byCount, func(i, j int) bool { return prof.InstrCount[byCount[i]] > prof.InstrCount[byCount[j]] })
	cfg := bm.ExecConfig()
	cfg.MaxDynInstrs = golden.DynInstrs*20 + 10_000
	ck, err := interp.NewRunner(m, cfg).Capture(bind, golden.DynInstrs/33, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	r := interp.NewRunner(m, cfg)
	site := func(id int) interp.Fault { return interp.Fault{InstrID: id, DynIndex: prof.InstrCount[id] / 2} }
	var persist *interp.Fault
	for _, id := range byCount {
		f := site(id)
		if res, skip := r.Resume(ck, &f); res.Status == interp.StatusOK && res.DynInstrs == golden.DynInstrs && skip.Suffix == 0 {
			persist = &f
			break
		}
	}
	if persist == nil {
		b.Fatal("no persisting full-length site")
	}
	zero := site(byCount[0])
	zero.Op = interp.FaultStuckAt0
	for _, c := range []struct {
		name     string
		f        interp.Fault
		converge bool
	}{{"compiled", *persist, false}, {"converged", zero, true}} {
		b.Run(c.name, func(b *testing.B) {
			r := interp.NewRunner(m, cfg)
			var dyn int64
			for i := 0; i < b.N; i++ {
				ff := c.f
				res, skip := r.Resume(ck, &ff)
				if res.Status != interp.StatusOK {
					b.Fatalf("status %v (%s)", res.Status, res.Trap)
				}
				if (skip.Suffix > 0) != c.converge {
					b.Fatalf("site %+v: converged %v, want %v", c.f, skip.Suffix > 0, c.converge)
				}
				dyn = res.DynInstrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dyn)/float64(b.N), "ns/instr")
		})
	}
}

func benchRunBound(b *testing.B, r *interp.Runner, bind interp.Binding, f *interp.Fault, withProf bool, bm *benchprog.Benchmark) {
	b.Helper()
	var prof *interp.Profile
	if withProf {
		prof = interp.NewProfile(bm.MustModule())
	}
	var dyn int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ff *interp.Fault
		if f != nil {
			cp := *f
			ff = &cp
		}
		res := r.RunScratch(bind, ff, prof)
		dyn = res.DynInstrs
		if res.Status != interp.StatusOK {
			b.Fatalf("status %v (%s)", res.Status, res.Trap)
		}
	}
	b.StopTimer()
	if dyn > 0 && b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dyn)/float64(b.N), "ns/instr")
	}
}

// BenchmarkLower measures the one-time decode cost of the compiled
// engine's decoder (amortized across runs by the package-level
// compiled-artifact cache in practice).
func BenchmarkLower(b *testing.B) {
	bm, ok := benchprog.ByName("hpccg")
	if !ok {
		b.Fatal("hpccg benchmark missing")
	}
	m := bm.MustModule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if interp.Lower(m).LegacyOnly() {
			b.Fatal("hpccg lowered legacy-only")
		}
	}
}
