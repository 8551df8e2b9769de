package main

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	if got := samplesFor(0.90); got != 100 {
		t.Fatalf("samplesFor(0.90) = %d, want 100", got)
	}
	if got := samplesFor(0.50); got != 20 {
		t.Fatalf("samplesFor(0.50) = %d, want 20", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	v, beyond, ok := percentile(xs, 0.90)
	if v != 90 || beyond != 10 || !ok {
		t.Fatalf("p90 of 1..100 = %v beyond=%d ok=%v, want 90 beyond=10 ok=true", v, beyond, ok)
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if _, beyond, ok := percentile(xs[:99], 0.90); ok || beyond >= minBeyond {
		t.Fatalf("99 samples: beyond=%d ok=%v, want fewer than %d beyond", beyond, ok, minBeyond)
	}
	if _, _, ok := percentile(nil, 0.90); ok {
		t.Fatal("empty sample reported a percentile")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestCoveredCountsOverlapsOnce(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {28, 29}, {40, 50}}
	if got := covered(ivs, 0, 45); got != 15+10+5 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("covered(nil) = %d", got)
	}
}

func TestSpecGenDeterministic(t *testing.T) {
	draw := func(seed int64, n int) []string {
		g := newSpecGen(seed, nil)
		var out []string
		for i := 0; i < n; i++ {
			s := g.next()
			out = append(out, s.Bench+"/"+s.Model+"/"+s.Input+"/"+
				itoa64(int64(s.Trials))+"/"+itoa64(s.Seed)+"/"+itoa64(s.InputSeed))
		}
		return out
	}
	a, b := draw(7, 300), draw(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different spec streams")
	}
	if reflect.DeepEqual(a, draw(8, 300)) {
		t.Fatal("different seeds drew the same spec stream")
	}
}

func TestSpecGenBlocksKeepTheMix(t *testing.T) {
	wantTrials := 0
	for _, l := range trialLevels {
		wantTrials += l
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := newSpecGen(seed, nil)
		for block := 0; block < 2; block++ {
			seen := map[string]bool{}
			combos := map[string]bool{}
			trials := map[string]int{}
			n := 0
			for {
				s := g.next()
				n++
				key := itoa64(s.Seed) + s.Bench + s.Model + s.Input
				if n%4 == 0 {
					if !seen[key] && block == 0 {
						t.Fatalf("seed %d: spec %d should repeat an earlier spec", seed, n)
					}
				} else {
					seen[key] = true
					combos[s.Bench+s.Model+s.Input] = true
					trials[s.Bench] += s.Trials
				}
				if g.blockDone() {
					break
				}
			}
			if n != 117 || len(combos) != 88 {
				t.Fatalf("seed %d block %d: %d specs covering %d combinations, want 117 covering 88", seed, block, n, len(combos))
			}
			for bench, tr := range trials {
				if tr != wantTrials {
					t.Fatalf("seed %d block %d: %s has %d trials, want %d", seed, block, bench, tr, wantTrials)
				}
			}
		}
	}
}

// TestSpecInputsAdmissible guards the "no operation fails" property of
// server-mixed: every random input the stream draws runs to completion.
func TestSpecInputsAdmissible(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs of generated inputs")
	}
	g := newSpecGen(1, admitNearReference())
	for i := 0; i < 117; i++ {
		s := g.next()
		if s.Input != "random" {
			continue
		}
		b, _ := benchprog.ByName(s.Bench)
		in := b.Spec.Random(rand.New(rand.NewSource(s.InputSeed)))
		if _, err := fault.RunGolden(b.MustModule(), b.Bind(in), b.ExecConfig()); err != nil {
			t.Fatalf("spec %d (%s input seed %d): %v", i, s.Bench, s.InputSeed, err)
		}
	}
}

func freshEditable(t *testing.T) ([]*benchprog.Benchmark, []*ir.Module) {
	t.Helper()
	bs, mods, err := editable()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) == 0 {
		t.Fatal("no editable benchmark")
	}
	return bs, mods
}

func TestEditGenDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		_, mods := freshEditable(t)
		g := newEditGen(seed, mods)
		var out []string
		for i := 0; i < 3*len(mods); i++ {
			b, s := g.next()
			out = append(out, itoa64(int64(b))+":"+itoa64(int64(s.Fn))+"."+itoa64(int64(s.Blk))+"."+itoa64(int64(s.Idx))+
				":"+pipeline.ModuleHash(mods[b]).Hex())
		}
		return out
	}
	a := run(5)
	if !reflect.DeepEqual(a, run(5)) {
		t.Fatal("same seed produced different edit sequences")
	}
	if reflect.DeepEqual(a, run(6)) {
		t.Fatal("different seeds produced the same edit sequence")
	}
}

func TestEditsVerifyAndKeepGoldenOutput(t *testing.T) {
	bs, mods := freshEditable(t)
	want := make([]*fault.Golden, len(mods))
	for i, m := range mods {
		g, err := fault.RunGolden(m, bs[i].Bind(bs[i].Reference), bs[i].ExecConfig())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = g
	}
	g := newEditGen(11, mods)
	n := 2 * g.roundLen()
	for i := 0; i < n; i++ {
		b, s := g.next()
		if g.roundDone() != ((i+1)%g.roundLen() == 0) {
			t.Fatal("edits did not end on a round boundary")
		}
		if err := ir.Verify(mods[b]); err != nil {
			t.Fatalf("edit %d (%s %+v) does not verify: %v", i, bs[b].Name, s, err)
		}
		got, err := fault.RunGolden(mods[b], bs[b].Bind(bs[b].Reference), bs[b].ExecConfig())
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, bs[b].Name, err)
		}
		if got.OutputHash != want[b].OutputHash || !reflect.DeepEqual(got.Output, want[b].Output) {
			t.Fatalf("edit %d (%s %+v) changed the golden output", i, bs[b].Name, s)
		}
	}
}

func TestReproducibleDropsFig8Timings(t *testing.T) {
	a := "Fig. 2: x\nrow 1 2\n\nFig. 8: breakdown\nBenchmark  A  B\nknn  0.05s  0.29s\n"
	b := "Fig. 2: x\nrow 1 2\n\nFig. 8: breakdown\nBenchmark  A  B\nknn  0.07s  0.31s\n"
	if reproducible([]byte(a)) != reproducible([]byte(b)) {
		t.Fatal("Fig. 8 timings leaked into the reproducible bytes")
	}
	c := "Fig. 2: x\nrow 1 3\n\nFig. 8: breakdown\nBenchmark  A  B\nknn  0.05s  0.29s\n"
	if reproducible([]byte(a)) == reproducible([]byte(c)) {
		t.Fatal("a Fig. 2 difference was dropped")
	}
}

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
