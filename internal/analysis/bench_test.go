package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
)

// BenchmarkTriage measures site classification per benchmark module:
// NewTriage over the module's fact bundle, which FactsFor memoizes on
// the module, so every iteration after the first reuses the cached
// facts (BenchmarkFacts times building them). It reports the
// masked-site accounting as benchmark metrics so `make bench` lands
// them in BENCH_analysis.json.
func BenchmarkTriage(b *testing.B) {
	for _, bench := range benchprog.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			m, err := bench.Module()
			if err != nil {
				b.Fatal(err)
			}
			var tri *analysis.Triage
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tri = analysis.NewTriage(m)
			}
			b.StopTimer()
			rep := tri.Report()
			b.ReportMetric(rep.MaskedSiteFrac, "masked_frac")
			b.ReportMetric(float64(rep.MaskedBits), "masked_bits")
			b.ReportMetric(float64(rep.TotalBits), "total_bits")
		})
	}
}

// factsSink keeps BenchmarkFacts' result live.
var factsSink *analysis.Facts

// BenchmarkFacts measures the full analysis chain behind triage (CFGs,
// def-use chains, known bits, value ranges, points-to, memory SSA, dead
// stores, demanded bits, detection and range-mask facts) per benchmark
// module. Each iteration analyzes a fresh clone, so the per-module memo
// never serves it; cloning is outside the timer.
func BenchmarkFacts(b *testing.B) {
	for _, bench := range benchprog.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			m, err := bench.Module()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cp := m.Clone()
				b.StartTimer()
				factsSink = analysis.FactsFor(cp)
			}
		})
	}
}

// BenchmarkVerifySSA measures the strict SSA checker on every benchmark
// module (it runs inside test suites and CI, so its cost matters).
func BenchmarkVerifySSA(b *testing.B) {
	for _, bench := range benchprog.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			m, err := bench.Module()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := analysis.VerifySSA(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
