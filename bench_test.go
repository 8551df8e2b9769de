// Package repro's root benchmark suite regenerates every table and figure
// of the paper under the Quick profile (reduced fault counts; the full
// paper-scale run is `go run ./cmd/experiments -exp all -full`).
//
// One benchmark per artifact:
//
//	Table I   -> BenchmarkTable1BenchmarkInventory
//	Fig. 2    -> BenchmarkFig2BaselineCoverageLoss
//	Table II  -> BenchmarkTable2CoverageLossInputs
//	Fig. 3    -> BenchmarkFig3IncubativeExample
//	Fig. 5    -> BenchmarkFig5WeightedCFG
//	Fig. 6    -> BenchmarkFig6Mitigation
//	Table III -> BenchmarkTable3MinpsidLossInputs
//	Fig. 7    -> BenchmarkFig7SearchEfficiency
//	Fig. 8    -> BenchmarkFig8TimeBreakdown
//	Fig. 9    -> BenchmarkFig9RealWorldInputs (includes Table IV)
//	§VIII-A   -> BenchmarkDiscussionOverheadVariance
//	§VIII-B   -> BenchmarkDiscussionMultithreadFFT
//
// Plus ablation benchmarks for the design choices called out in DESIGN.md
// (knapsack DP vs greedy, GA vs random search) and substrate
// micro-benchmarks (interpreter, FI campaign throughput).
package repro

import (
	"io"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/minpsid"
	"repro/internal/sid"
)

// benchProfile is the reduced profile used by the root benchmarks: small
// enough that the whole suite completes in minutes, large enough that the
// paper's qualitative shapes are visible.
func benchProfile() harness.Profile {
	p := harness.Quick()
	p.EvalInputs = 5
	p.FaultsPerProgram = 120
	p.FaultsPerInstr = 8
	p.SearchMaxInputs = 3
	p.SearchPatience = 2
	p.PopSize = 4
	p.MaxGenerations = 2
	return p
}

// subset returns a representative benchmark subset: one input-sensitive
// (knn), one insensitive (pathfinder), one float-heavy (fft).
func subset(b *testing.B, names ...string) []*benchprog.Benchmark {
	b.Helper()
	if len(names) == 0 {
		names = []string{"pathfinder", "knn", "fft"}
	}
	var out []*benchprog.Benchmark
	for _, n := range names {
		bm, ok := benchprog.ByName(n)
		if !ok {
			b.Fatalf("missing benchmark %s", n)
		}
		out = append(out, bm)
	}
	return out
}

func BenchmarkTable1BenchmarkInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2BaselineCoverageLoss(b *testing.B) {
	bs := subset(b)
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.Fig2(r, bs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2CoverageLossInputs(b *testing.B) {
	bs := subset(b)
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.Table2(r, bs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3IncubativeExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.Fig3(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5WeightedCFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Mitigation(b *testing.B) {
	bs := subset(b)
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.Fig6(r, bs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3MinpsidLossInputs(b *testing.B) {
	bs := subset(b, "knn")
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.Table3(r, bs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SearchEfficiency(b *testing.B) {
	bs := subset(b, "needle")
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		res, err := harness.Fig7(r, bs, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res) > 0 {
			b.ReportMetric(float64(res[0].GAFound), "ga-incubative")
			b.ReportMetric(float64(res[0].RandomFound), "rnd-incubative")
		}
	}
}

func BenchmarkFig8TimeBreakdown(b *testing.B) {
	bs := subset(b, "pathfinder")
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.Fig8(r, bs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9RealWorldInputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		p.EvalInputs = 4
		r := harness.NewRunner(p)
		if _, err := harness.Fig9(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4CaseStudyLossInputs(b *testing.B) {
	// Table IV is derived from the same case-study evaluation as Fig. 9.
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		p.EvalInputs = 4
		r := harness.NewRunner(p)
		res, err := harness.Fig9(r, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var base, minp float64
			for _, cs := range res {
				if cs.Tech == harness.Baseline {
					base += cs.LossPct
				} else {
					minp += cs.LossPct
				}
			}
			n := float64(len(res) / 2)
			b.ReportMetric(base/n, "baseline-loss-pct")
			b.ReportMetric(minp/n, "minpsid-loss-pct")
		}
	}
}

func BenchmarkDiscussionOverheadVariance(b *testing.B) {
	bs := subset(b, "pathfinder", "knn")
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.OverheadVariance(r, bs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscussionMultithreadFFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchProfile())
		if err := harness.MTFFT(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// measureFor prepares a reference measurement for ablations.
func measureFor(b *testing.B, name string, faultsPerInstr int) (*benchprog.Benchmark, *sid.Measurement) {
	b.Helper()
	bm, _ := benchprog.ByName(name)
	meas, err := sid.Measure(bm.MustModule(), bm.Bind(bm.Reference), sid.Config{
		Exec:           bm.ExecConfig(),
		FaultsPerInstr: faultsPerInstr,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return bm, meas
}

// BenchmarkAblationKnapsackDP vs Greedy: selection quality/time tradeoff
// (DESIGN.md design choice: exact DP selection by default).
func BenchmarkAblationKnapsackDP(b *testing.B) {
	bm, meas := measureFor(b, "kmeans", 8)
	m := bm.MustModule()
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		sel := sid.Select(m, meas, 0.5, sid.MethodDP)
		cov = sel.ExpectedCoverage
	}
	b.ReportMetric(cov*100, "expected-coverage-%")
}

func BenchmarkAblationKnapsackGreedy(b *testing.B) {
	bm, meas := measureFor(b, "kmeans", 8)
	m := bm.MustModule()
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		sel := sid.Select(m, meas, 0.5, sid.MethodGreedy)
		cov = sel.ExpectedCoverage
	}
	b.ReportMetric(cov*100, "expected-coverage-%")
}

// BenchmarkAblationGASearch vs RandomSearch: incubative yield per budget
// (DESIGN.md design choice: weighted-CFG-guided GA).
func BenchmarkAblationGASearch(b *testing.B) {
	benchAblationSearch(b, minpsid.StrategyGA)
}

func BenchmarkAblationRandomSearch(b *testing.B) {
	benchAblationSearch(b, minpsid.StrategyRandom)
}

func BenchmarkAblationAnnealSearch(b *testing.B) {
	benchAblationSearch(b, minpsid.StrategyAnneal)
}

func benchAblationSearch(b *testing.B, strategy minpsid.Strategy) {
	bm, meas := measureFor(b, "knn", 8)
	tgt := minpsid.Target{Mod: bm.MustModule(), Spec: bm.Spec, Bind: bm.Bind, Exec: bm.ExecConfig()}
	cfg := minpsid.Config{FaultsPerInstr: 8, MaxInputs: 3, Patience: 2,
		PopSize: 4, MaxGenerations: 2, Seed: 9, Strategy: strategy}
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		res := minpsid.Search(tgt, cfg, bm.Reference, meas)
		found = len(res.Incubative)
	}
	b.ReportMetric(float64(found), "incubative")
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkInterpreterThroughput(b *testing.B) {
	bm, _ := benchprog.ByName("needle")
	m := bm.MustModule()
	bind := bm.Bind(bm.Reference)
	r := interp.NewRunner(m, bm.ExecConfig())
	b.ResetTimer()
	var dyn int64
	for i := 0; i < b.N; i++ {
		res := r.Run(bind, nil, nil)
		dyn += res.DynInstrs
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(dyn)/sec/1e6, "Minstr/s")
	}
}

func BenchmarkFaultCampaignThroughput(b *testing.B) {
	bm, _ := benchprog.ByName("pathfinder")
	m := bm.MustModule()
	bind := bm.Bind(bm.Reference)
	golden, err := fault.RunGolden(m, bind, bm.ExecConfig())
	if err != nil {
		b.Fatal(err)
	}
	c := &fault.Campaign{Mod: m, Bind: bind, Cfg: bm.ExecConfig(), Golden: golden}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(200, int64(i))
	}
	b.StopTimer()
	b.ReportMetric(200*float64(b.N)/b.Elapsed().Seconds(), "faults/s")
}

// BenchmarkAblationFullDuplication measures the Fig. 1(b) upper bound:
// full duplication's coverage and dynamic-instruction overhead, the
// trade-off SID navigates.
func BenchmarkAblationFullDuplication(b *testing.B) {
	bm, _ := benchprog.ByName("pathfinder")
	m := bm.MustModule()
	bind := bm.Bind(bm.Reference)
	b.ResetTimer()
	var cov, overhead float64
	for i := 0; i < b.N; i++ {
		full := sid.FullDuplication(m)
		golden, err := fault.RunGolden(full, bind, bm.ExecConfig())
		if err != nil {
			b.Fatal(err)
		}
		base, err := fault.RunGolden(m, bind, bm.ExecConfig())
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(golden.DynInstrs)/float64(base.DynInstrs) - 1
		c := &fault.Campaign{Mod: full, Bind: bind, Cfg: bm.ExecConfig(), Golden: golden}
		res := c.Run(300, int64(i))
		cov, _ = res.SDCCoverage()
	}
	b.ReportMetric(cov*100, "coverage-%")
	b.ReportMetric(overhead*100, "overhead-%")
}

// BenchmarkAblationHeuristicSelection compares SDCTune-style static
// scoring against FI-measured probabilities: preparation cost vs the
// coverage of the resulting selection (evaluated on the reference input).
func BenchmarkAblationHeuristicSelection(b *testing.B) {
	bm, _ := benchprog.ByName("needle")
	m := bm.MustModule()
	bind := bm.Bind(bm.Reference)
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		meas, err := sid.HeuristicMeasure(m, bind, bm.ExecConfig())
		if err != nil {
			b.Fatal(err)
		}
		sel := sid.Select(m, meas, 0.5, sid.MethodDP)
		prot := sid.Duplicate(m, sel.Chosen)
		res, err := sid.EvaluateCoverage(prot, bind, sid.Config{Exec: bm.ExecConfig()}, 200, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		cov, _ = res.SDCCoverage()
	}
	b.ReportMetric(cov*100, "coverage-%")
}

func BenchmarkAblationFISelection(b *testing.B) {
	bm, _ := benchprog.ByName("needle")
	m := bm.MustModule()
	bind := bm.Bind(bm.Reference)
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		meas, err := sid.Measure(m, bind, sid.Config{Exec: bm.ExecConfig(), FaultsPerInstr: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sel := sid.Select(m, meas, 0.5, sid.MethodDP)
		prot := sid.Duplicate(m, sel.Chosen)
		res, err := sid.EvaluateCoverage(prot, bind, sid.Config{Exec: bm.ExecConfig()}, 200, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		cov, _ = res.SDCCoverage()
	}
	b.ReportMetric(cov*100, "coverage-%")
}
