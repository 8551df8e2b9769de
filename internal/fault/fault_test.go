package fault

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
)

// testProgram is a small kernel with arithmetic, branches, and memory, so
// faults can produce every outcome class.
const testProgram = `
var data[] int;
func main(n int) {
	var s int = 0;
	for (var i int = 0; i < n; i = i + 1) {
		var v int = data[i % len(data)];
		if (v % 2 == 0) {
			s = s + v * 3;
		} else {
			s = s - v;
		}
	}
	emiti(s);
}`

func setup(t testing.TB) (*ir.Module, interp.Binding, *Golden) {
	t.Helper()
	m, err := minicc.Compile("fi.mc", testProgram)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bind := interp.Binding{
		Args:    []uint64{50},
		Globals: map[string][]uint64{"data": {3, 8, 1, 6, 2, 9, 4}},
	}
	g, err := RunGolden(m, bind, interp.Config{})
	if err != nil {
		t.Fatalf("RunGolden: %v", err)
	}
	return m, bind, g
}

func TestRunGolden(t *testing.T) {
	m, bind, g := setup(t)
	if len(g.Output) != 1 {
		t.Fatalf("golden output = %v", g.Output)
	}
	if g.DynInstrs <= 0 || g.Cycles < g.DynInstrs {
		t.Fatalf("golden accounting bogus: %+v", g)
	}
	var sum int64
	for _, c := range g.Profile.InstrCount {
		sum += c
	}
	if sum != g.DynInstrs {
		t.Fatalf("profile total %d != dyn %d", sum, g.DynInstrs)
	}
	_ = m
	_ = bind
}

func TestRunGoldenRejectsCrashingInput(t *testing.T) {
	m, err := minicc.Compile("crash.mc", `func main(n int) { emiti(1 / n); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGolden(m, interp.Binding{Args: []uint64{0}}, interp.Config{}); err == nil {
		t.Fatal("RunGolden accepted a crashing input")
	}
}

func TestClassify(t *testing.T) {
	g := &Golden{Output: []uint64{1, 2}}
	cases := []struct {
		res  interp.Result
		want Outcome
	}{
		{interp.Result{Status: interp.StatusOK, Output: []uint64{1, 2}}, OutcomeBenign},
		{interp.Result{Status: interp.StatusOK, Output: []uint64{1, 3}}, OutcomeSDC},
		{interp.Result{Status: interp.StatusOK, Output: []uint64{1}}, OutcomeSDC},
		{interp.Result{Status: interp.StatusOK, Output: []uint64{1, 2, 3}}, OutcomeSDC},
		{interp.Result{Status: interp.StatusCrash}, OutcomeCrash},
		{interp.Result{Status: interp.StatusHang}, OutcomeHang},
		{interp.Result{Status: interp.StatusDetected}, OutcomeDetected},
	}
	for i, tc := range cases {
		if got := Classify(g, tc.res); got != tc.want {
			t.Errorf("case %d: Classify = %v, want %v", i, got, tc.want)
		}
	}
}

func TestSamplerSiteValidity(t *testing.T) {
	m, _, g := setup(t)
	s := NewSampler(m, g, false)
	if s.Total() <= 0 {
		t.Fatal("no injectable dynamic instances")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		site, ok := s.RandomSite(rng)
		if !ok {
			t.Fatal("RandomSite failed")
		}
		in := m.Instrs[site.InstrID]
		if !in.IsInjectable() {
			t.Fatalf("site at non-injectable instr %d (%s)", site.InstrID, in.Op)
		}
		if site.DynIndex < 0 || site.DynIndex >= g.Profile.InstrCount[site.InstrID] {
			t.Fatalf("site dyn index %d out of range [0,%d)", site.DynIndex, g.Profile.InstrCount[site.InstrID])
		}
		if site.Bit >= in.Type.Bits() {
			t.Fatalf("bit %d out of range for %s", site.Bit, in.Type)
		}
	}
}

// TestSamplerUniformOverDynInstances: the probability of selecting a static
// instruction must be proportional to its dynamic count.
func TestSamplerUniformOverDynInstances(t *testing.T) {
	m, _, g := setup(t)
	s := NewSampler(m, g, false)
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	hits := make(map[int]int)
	for i := 0; i < n; i++ {
		site, _ := s.RandomSite(rng)
		hits[site.InstrID]++
	}
	for id, c := range hits {
		want := float64(g.Profile.InstrCount[id]) / float64(s.Total())
		got := float64(c) / n
		if want > 0.02 { // only check instructions with measurable mass
			if got < want*0.7 || got > want*1.3 {
				t.Errorf("instr %d: frequency %.4f, want ~%.4f", id, got, want)
			}
		}
	}
}

func TestCampaignOutcomesAndDeterminism(t *testing.T) {
	m, bind, g := setup(t)
	c := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
	r1 := c.Run(400, 42)
	if r1.Trials != 400 {
		t.Fatalf("trials = %d, want 400", r1.Trials)
	}
	// A campaign on an unprotected program must see SDCs and benign runs.
	if r1.Counts[OutcomeSDC] == 0 {
		t.Error("no SDCs observed in 400 trials")
	}
	if r1.Counts[OutcomeBenign] == 0 {
		t.Error("no benign outcomes observed in 400 trials")
	}
	if r1.Counts[OutcomeDetected] != 0 {
		t.Error("detected outcomes on an unprotected program")
	}

	// Determinism across worker counts.
	c2 := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g, Workers: 1}
	r2 := c2.Run(400, 42)
	if r1 != r2 {
		t.Fatalf("campaign not deterministic across worker counts:\n%+v\n%+v", r1, r2)
	}
	// Different seed should (almost surely) differ.
	r3 := c.Run(400, 43)
	if r1 == r3 {
		t.Log("warning: different seeds produced identical outcome counts (possible but unlikely)")
	}
}

func TestPerInstructionFI(t *testing.T) {
	m, bind, g := setup(t)
	c := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
	stats := c.PerInstruction(20, 11)
	if len(stats) != m.NumInstrs() {
		t.Fatalf("stats len = %d, want %d", len(stats), m.NumInstrs())
	}
	anyExecuted, anySDC := false, false
	for _, st := range stats {
		if st.Executed {
			anyExecuted = true
			if st.Trials == 0 {
				t.Errorf("instr %d executed but has no trials", st.InstrID)
			}
			if got := st.SDC + st.Crash + st.Hang + st.Detected + st.Benign; got != st.Trials {
				t.Errorf("instr %d outcome sum %d != trials %d", st.InstrID, got, st.Trials)
			}
			if st.SDCProb() > 0 {
				anySDC = true
			}
		} else if st.Trials != 0 {
			t.Errorf("instr %d not executed but has %d trials", st.InstrID, st.Trials)
		}
		if p := st.SDCProb(); p < 0 || p > 1 {
			t.Errorf("instr %d SDC prob %f out of range", st.InstrID, p)
		}
	}
	if !anyExecuted {
		t.Fatal("no instruction executed")
	}
	if !anySDC {
		t.Fatal("no instruction shows nonzero SDC probability")
	}
}

func TestCampaignResultAccessors(t *testing.T) {
	var r CampaignResult
	if _, ok := r.SDCCoverage(); ok {
		t.Error("coverage defined with no trials")
	}
	r.Add(OutcomeSDC)
	r.Add(OutcomeDetected)
	r.Add(OutcomeDetected)
	r.Add(OutcomeBenign)
	if cov, ok := r.SDCCoverage(); !ok || cov != 2.0/3.0 {
		t.Errorf("coverage = %v, %v; want 2/3, true", cov, ok)
	}
	if r.Rate(OutcomeBenign) != 0.25 {
		t.Errorf("benign rate = %f", r.Rate(OutcomeBenign))
	}
	var o CampaignResult
	o.Add(OutcomeCrash)
	r.Merge(o)
	if r.Trials != 5 || r.Counts[OutcomeCrash] != 1 {
		t.Errorf("merge failed: %+v", r)
	}
}

func TestOutcomeString(t *testing.T) {
	names := map[Outcome]string{
		OutcomeBenign: "benign", OutcomeSDC: "sdc", OutcomeCrash: "crash",
		OutcomeHang: "hang", OutcomeDetected: "detected",
	}
	for o, w := range names {
		if o.String() != w {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), w)
		}
	}
}

// Property: a single-bit flip re-applied to the same site always yields
// the same outcome (full determinism of the injection machinery).
func TestInjectionDeterminismProperty(t *testing.T) {
	m, bind, g := setup(t)
	sampler := NewSampler(m, g, false)
	cfg := faultyConfig(interp.Config{}, g)
	r1 := interp.NewRunner(m, cfg)
	r2 := interp.NewRunner(m, cfg)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		site, ok := sampler.RandomSite(rng)
		if !ok {
			return false
		}
		a := Classify(g, r1.Run(bind, &site, nil))
		b := Classify(g, r2.Run(bind, &site, nil))
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCampaign1000Faults(b *testing.B) {
	m, err := minicc.Compile("fi.mc", testProgram)
	if err != nil {
		b.Fatal(err)
	}
	bind := interp.Binding{
		Args:    []uint64{200},
		Globals: map[string][]uint64{"data": {3, 8, 1, 6, 2, 9, 4}},
	}
	g, err := RunGolden(m, bind, interp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	c := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(1000, int64(i))
	}
}

func TestTrueCoverageBounds(t *testing.T) {
	m, bind, _ := setup(t)

	// No protection: identity mapping, zero coverage by definition.
	identity := make(map[int]int, m.NumInstrs())
	for i := 0; i < m.NumInstrs(); i++ {
		identity[i] = i
	}
	res, err := TrueCoverage(m, m, identity, bind, interp.Config{}, 300, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SDCFaults == 0 {
		t.Fatal("no SDC faults observed on the unprotected program")
	}
	if cov, ok := res.Coverage(); !ok || cov != 0 {
		t.Fatalf("unprotected coverage = %f, want 0", cov)
	}
	if res.Unprotect.Trials != res.Trials {
		t.Fatalf("unprotected campaign trials %d != %d", res.Unprotect.Trials, res.Trials)
	}
}

func TestTrueCoverageDeterminism(t *testing.T) {
	m, bind, _ := setup(t)
	identity := make(map[int]int, m.NumInstrs())
	for i := 0; i < m.NumInstrs(); i++ {
		identity[i] = i
	}
	a, err := TrueCoverage(m, m, identity, bind, interp.Config{}, 200, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrueCoverage(m, m, identity, bind, interp.Config{}, 200, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.SDCFaults != b.SDCFaults || a.Mitigated != b.Mitigated || a.Unprotect != b.Unprotect {
		t.Fatalf("true coverage not deterministic across worker counts:\n%+v\n%+v", a, b)
	}
}

func TestTrueCoverageRejectsBadInput(t *testing.T) {
	m, _, _ := setup(t)
	bad := interp.Binding{Args: []uint64{50}} // missing data global
	defer func() { recover() }()
	if _, err := TrueCoverage(m, m, map[int]int{}, bad, interp.Config{}, 10, 1, 0); err == nil {
		t.Fatal("inadmissible binding accepted")
	}
}

func TestMultiBitCampaign(t *testing.T) {
	m, bind, g := setup(t)
	c := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
	single := c.Run(400, 77)
	double := c.RunMultiBit(400, 77, 2)
	if double.Trials != 400 {
		t.Fatalf("trials = %d", double.Trials)
	}
	// Multi-bit faults must manifest at least as often as single-bit:
	// strictly fewer benign outcomes is the expected shape (allow slack
	// for sampling noise).
	if double.Counts[OutcomeBenign] > single.Counts[OutcomeBenign]+40 {
		t.Errorf("2-bit faults more benign than 1-bit: %d vs %d",
			double.Counts[OutcomeBenign], single.Counts[OutcomeBenign])
	}
	// Determinism.
	double2 := c.RunMultiBit(400, 77, 2)
	if double != double2 {
		t.Fatal("multi-bit campaign not deterministic")
	}
}

func TestMultiBitSiteMask(t *testing.T) {
	m, _, g := setup(t)
	s := NewSampler(m, g, false)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		site, ok := s.RandomSiteModel(KBit(3), rng)
		if !ok {
			t.Fatal("no site")
		}
		bits := 0
		for mask := site.Mask; mask != 0; mask &= mask - 1 {
			bits++
		}
		width := int(m.Instrs[site.InstrID].Type.Bits())
		want := 3
		if want > width {
			want = width
		}
		if bits != want {
			t.Fatalf("mask %x has %d bits, want %d (width %d)", site.Mask, bits, want, width)
		}
	}
}

// A campaign on a program with no injectable dynamic instructions must
// report the undrawable trials as shortfall rather than silently
// returning fewer trials than requested.
func TestCampaignShortfallReported(t *testing.T) {
	m, err := minicc.Compile("empty.mc", `func main(n int) { }`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGolden(m, interp.Binding{Args: []uint64{1}}, interp.Config{})
	if err != nil {
		t.Fatalf("RunGolden: %v", err)
	}
	c := &Campaign{Mod: m, Bind: interp.Binding{Args: []uint64{1}}, Cfg: interp.Config{}, Golden: g}
	res := c.Run(10, 3)
	if res.Requested != 10 {
		t.Errorf("Requested = %d, want 10", res.Requested)
	}
	if res.Trials+res.Shortfall != res.Requested {
		t.Errorf("Trials %d + Shortfall %d != Requested %d", res.Trials, res.Shortfall, res.Requested)
	}
	if NewSampler(m, g, false).Total() == 0 && res.Shortfall != 10 {
		t.Errorf("no injectable sites but Shortfall = %d, want 10", res.Shortfall)
	}
}

// Campaign results must be bit-identical across worker counts, including
// the new Requested/Shortfall accounting (CampaignResult is comparable).
func TestCampaignWorkerCountInvariance(t *testing.T) {
	m, bind, g := setup(t)
	base := (&Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g, Workers: 1}).Run(300, 9)
	for _, nw := range []int{2, 8} {
		c := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g, Workers: nw}
		if got := c.Run(300, 9); got != base {
			t.Fatalf("Workers=%d result differs:\n%+v\n%+v", nw, got, base)
		}
	}
}

// TrueCoverage through a warm cache must be bit-identical to an uncached
// run: memoization of goldens and the phase-1 campaign may change cost,
// never results.
func TestTrueCoverageCacheInvariance(t *testing.T) {
	m, bind, _ := setup(t)
	identity := make(map[int]int, m.NumInstrs())
	for i := 0; i < m.NumInstrs(); i++ {
		identity[i] = i
	}
	want, err := TrueCoverage(m, m, identity, bind, interp.Config{}, 200, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	pm := NewMetrics().Phase(PhaseEvaluation)
	opts := CoverageOptions{Trials: 200, Seed: 42, Workers: 1, Cache: cache, Metrics: pm}
	cold, err := TrueCoverageOpts(m, m, identity, bind, interp.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := TrueCoverageOpts(m, m, identity, bind, interp.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold != want || warm != want {
		t.Fatalf("cached TrueCoverage differs:\nuncached %+v\ncold     %+v\nwarm     %+v", want, cold, warm)
	}
	s := cache.Stats()
	if s.CampaignHits == 0 || s.GoldenHits == 0 {
		t.Fatalf("warm run did not hit the cache: %+v", s)
	}
	if snap := pm.Snapshot(); snap.Trials == 0 {
		t.Error("evaluation phase recorded no trials")
	}
}

// TestFaultSiteMappingThroughFusedOps arms a fault at every injectable
// static instruction of the test kernel and classifies the outcome under
// both engines. The compiled engine fuses this kernel's loop bodies
// into superinstructions, so sites that land inside a fused run (or on
// the cmp half of a fused cmp+br) must still map to the same dynamic
// instance, flip the same bit, and yield the same outcome as the unfused
// legacy stepper — the fault-site coordinate system (InstrID, DynIndex,
// Bit) is engine-invariant.
func TestFaultSiteMappingThroughFusedOps(t *testing.T) {
	m, bind, g := setup(t)
	if c := interp.Compile(interp.Lower(m)); c.Stats().Runs == 0 {
		t.Fatalf("test kernel compiled without any fused runs: %+v", c.Stats())
	}
	s := NewSampler(m, g, false)
	engines := []interp.Engine{interp.EngineLegacy, interp.EngineCompiled}
	rng := rand.New(rand.NewSource(99))
	sites := 0
	for _, in := range m.Instrs {
		if !in.IsInjectable() {
			continue
		}
		f, ok := s.SiteFor(in.ID, rng)
		if !ok {
			continue // never executed on this input
		}
		sites++
		var out [2]Outcome
		var res [2]interp.Result
		for i, eng := range engines {
			cfg := faultyConfig(interp.Config{}, g)
			cfg.Engine = eng
			ff := f
			res[i] = interp.NewRunner(m, cfg).Run(bind, &ff, nil)
			out[i] = Classify(g, res[i])
		}
		for i := 1; i < len(engines); i++ {
			if out[i] != out[0] {
				t.Fatalf("site %+v: outcome diverges: legacy %v, %v %v", f, out[0], engines[i], out[i])
			}
			if res[i].DynInstrs != res[0].DynInstrs || res[i].OutputHash != res[0].OutputHash {
				t.Fatalf("site %+v: result diverges vs %v:\nlegacy %+v\ngot    %+v", f, engines[i], res[0], res[i])
			}
		}
	}
	if sites < 10 {
		t.Fatalf("only %d injectable sites exercised; kernel too small to pin fused-site mapping", sites)
	}
}
