package harness

// Golden test for the static-rank report. The evaluation cache is
// seeded with a synthetic reference measurement over a real benchmark
// module, so the report exercises the real static scorer
// (sid.HeuristicSDCProb) against fixed ground truth with no fault
// injection. Regenerate with:
//
//	go test ./internal/harness -run TestStaticRankGolden -update

import (
	"bytes"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/sid"
)

func TestStaticRankGolden(t *testing.T) {
	b, ok := benchprog.ByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder benchmark missing")
	}
	m := b.MustModule()
	n := m.NumInstrs()
	meas := &sid.Measurement{
		DynFrac: make([]float64, n),
		SDCProb: make([]float64, n),
	}
	for id := 0; id < n; id++ {
		if id%5 == 4 {
			continue // leave some sites unexecuted: no ground truth
		}
		meas.DynFrac[id] = 1
		meas.SDCProb[id] = float64((id*37)%101) / 100
	}
	r := NewRunner(Quick())
	r.cache[b.Name] = &BenchEval{Bench: b, RefMeas: meas}

	var buf bytes.Buffer
	if err := StaticRank(r, []*benchprog.Benchmark{b}, &buf); err != nil {
		t.Fatalf("static-rank: %v", err)
	}
	checkGolden(t, "staticrank.golden", buf.Bytes())
}
