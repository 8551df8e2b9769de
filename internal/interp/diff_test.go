package interp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sid"
)

// The differential suite pins the compiled superinstruction engine to the
// legacy reference stepper: for every benchmark program (and
// fault-injected and SID-protected variants) both engines must produce
// bit-identical results and dynamic profiles. Any divergence in
// instruction accounting, phi semantics, trap ordering, flip placement,
// fusion accounting, or known-bits specialization shows up here.

func runEngine(t *testing.T, m *ir.Module, bind interp.Binding, cfg interp.Config,
	f *interp.Fault, eng interp.Engine) (interp.Result, *interp.Profile) {
	t.Helper()
	cfg.Engine = eng
	prof := interp.NewProfile(m)
	r := interp.NewRunner(m, cfg)
	var ff *interp.Fault
	if f != nil {
		cp := *f
		ff = &cp
	}
	return r.Run(bind, ff, prof), prof
}

func eqInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffEngines lists the oracle engine (legacy, first) and the engine
// pinned against it.
var diffEngines = []interp.Engine{interp.EngineLegacy, interp.EngineCompiled}

// diffRun executes (m, bind, f) under both engines and fails the test on
// any observable difference. It returns the legacy result.
func diffRun(t *testing.T, name string, m *ir.Module, bind interp.Binding,
	cfg interp.Config, f *interp.Fault) interp.Result {
	t.Helper()
	lres, lprof := runEngine(t, m, bind, cfg, f, interp.EngineLegacy)
	for _, eng := range diffEngines[1:] {
		ires, iprof := runEngine(t, m, bind, cfg, f, eng)

		if lres.Status != ires.Status || lres.Trap != ires.Trap {
			t.Fatalf("%s: status/trap diverge: legacy %v %q, %v %v %q",
				name, lres.Status, lres.Trap, eng, ires.Status, ires.Trap)
		}
		if lres.DynInstrs != ires.DynInstrs || lres.Cycles != ires.Cycles {
			t.Fatalf("%s: accounting diverges: legacy dyn=%d cyc=%d, %v dyn=%d cyc=%d",
				name, lres.DynInstrs, lres.Cycles, eng, ires.DynInstrs, ires.Cycles)
		}
		if len(lres.Output) != len(ires.Output) {
			t.Fatalf("%s: output length diverges vs %v: %d vs %d", name, eng, len(lres.Output), len(ires.Output))
		}
		for i := range lres.Output {
			if lres.Output[i] != ires.Output[i] {
				t.Fatalf("%s: output word %d diverges vs %v: %#x vs %#x", name, i, eng, lres.Output[i], ires.Output[i])
			}
		}
		if lres.OutputHash != ires.OutputHash {
			t.Fatalf("%s: output hash diverges vs %v: %#x vs %#x", name, eng, lres.OutputHash, ires.OutputHash)
		}
		if !eqInt64s(lprof.InstrCount, iprof.InstrCount) {
			t.Fatalf("%s: InstrCount profiles diverge vs %v", name, eng)
		}
		if !eqInt64s(lprof.InstrCycles, iprof.InstrCycles) {
			t.Fatalf("%s: InstrCycles profiles diverge vs %v", name, eng)
		}
		if !eqInt64s(lprof.BlockCount, iprof.BlockCount) {
			t.Fatalf("%s: BlockCount profiles diverge vs %v", name, eng)
		}
		if !eqInt64s(lprof.EdgeHits, iprof.EdgeHits) {
			t.Fatalf("%s: EdgeHits profiles diverge vs %v", name, eng)
		}
	}
	return lres
}

func diffBenchmarks(t *testing.T) []*benchprog.Benchmark {
	all := benchprog.Eleven()
	if testing.Short() {
		return all[:3]
	}
	return all
}

func TestEngineDifferentialBenchprogs(t *testing.T) {
	for _, b := range diffBenchmarks(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m := b.MustModule()
			if interp.Lower(m).LegacyOnly() {
				t.Fatalf("%s decodes legacy-only; compiled engine not exercised", b.Name)
			}
			res := diffRun(t, b.Name, m, b.Bind(b.Reference), b.ExecConfig(), nil)
			if res.Status != interp.StatusOK {
				t.Fatalf("reference run not OK: %v (%s)", res.Status, res.Trap)
			}
			if res.OutputHash == 0 {
				t.Fatal("real run produced zero OutputHash; fast-path guard would be bypassed")
			}
		})
	}
}

func TestEngineDifferentialFaults(t *testing.T) {
	nSites := 8
	if testing.Short() {
		nSites = 2
	}
	for _, b := range diffBenchmarks(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m := b.MustModule()
			bind := b.Bind(b.Reference)
			cfg := b.ExecConfig()
			cfg.Engine = interp.EngineLegacy
			g, err := fault.RunGolden(m, bind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := fault.NewSampler(m, g, false)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < nSites; i++ {
				f, ok := s.RandomSite(rng)
				if !ok {
					t.Fatal("no injectable sites")
				}
				diffRun(t, b.Name, m, bind, b.ExecConfig(), &f)
			}
		})
	}
}

// Full duplication inserts the icmp-eq + detect pairs that the decoder
// fuses into a single opcode (in spawn-free modules), and places each
// duplicated phi's copy mid-block, where it lowers to an xMidPhi word;
// this pins both, including detection halts under injected faults, to
// the reference.
func TestEngineDifferentialProtected(t *testing.T) {
	nSites := 6
	if testing.Short() {
		nSites = 2
	}
	for _, b := range diffBenchmarks(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m := sid.FullDuplication(b.MustModule())
			if interp.Lower(m).LegacyOnly() {
				t.Fatalf("%s/dup decodes legacy-only; compiled engine not exercised", b.Name)
			}
			diffSites(t, b.Name+"/dup", m, b.Bind(b.Reference), b.ExecConfig(), 7, nSites)
		})
	}
}

// diffSites pins m's reference run, which must complete, and nSites fault
// sites drawn at seed from its legacy golden run.
func diffSites(t *testing.T, name string, m *ir.Module, bind interp.Binding,
	cfg interp.Config, seed int64, nSites int) {
	t.Helper()
	res := diffRun(t, name, m, bind, cfg, nil)
	if res.Status != interp.StatusOK {
		t.Fatalf("%s: reference run not OK: %v (%s)", name, res.Status, res.Trap)
	}
	gcfg := cfg
	gcfg.Engine = interp.EngineLegacy
	g, err := fault.RunGolden(m, bind, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fault.NewSampler(m, g, false)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nSites; i++ {
		f, ok := s.RandomSite(rng)
		if !ok {
			t.Fatal("no injectable sites")
		}
		// Detection is input-dependent; identity is what's pinned.
		diffRun(t, name, m, bind, cfg, &f)
	}
}

// TestCompiledFusionCoverage pins the mining/fusion loop on a real
// benchmark: sequence mining over an edge profile must surface hot
// straight-line opcode runs, the compiler must fuse them, and the fused
// words must cover a meaningful share of the dynamic instruction stream
// (the whole point of the tier — if coverage collapses, the speedup is
// gone even though bit-identity still holds).
func TestCompiledFusionCoverage(t *testing.T) {
	b, ok := benchprog.ByName("hpccg")
	if !ok {
		t.Fatal("benchmark lookup failed")
	}
	m := b.MustModule()
	_, prof := runEngine(t, m, b.Bind(b.Reference), b.ExecConfig(), nil, interp.EngineCompiled)

	img := interp.Lower(m)
	seqs := interp.MineSequences(img, prof, 8)
	if len(seqs) == 0 {
		t.Fatal("no fusable sequences mined from a numeric kernel")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i].Dynamic > seqs[i-1].Dynamic {
			t.Fatalf("mined sequences not sorted by dynamic weight: %+v after %+v", seqs[i], seqs[i-1])
		}
	}

	c := interp.Compile(img)
	st := c.Stats()
	if st.Runs == 0 || st.CmpBr == 0 {
		t.Fatalf("hpccg compiled without fusion: %+v", st)
	}
	if frac := c.FusedDynamicFraction(prof); frac < 0.25 {
		t.Fatalf("fused ops cover only %.1f%% of the dynamic stream, want >= 25%%", 100*frac)
	} else {
		t.Logf("fused dynamic coverage: %.1f%% (stats %+v)", 100*frac, st)
	}
}

// A whole campaign table (benign/SDC/crash/hang/detected counts at a fixed
// seed) must be identical under both engines.
func TestEngineDifferentialCampaign(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	b, ok := benchprog.ByName(diffBenchmarks(t)[0].Name)
	if !ok {
		t.Fatal("benchmark lookup failed")
	}
	m := b.MustModule()
	bind := b.Bind(b.Reference)
	tables := make([]fault.CampaignResult, len(diffEngines))
	for i, eng := range diffEngines {
		cfg := b.ExecConfig()
		cfg.Engine = eng
		g, err := fault.RunGolden(m, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := &fault.Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: g, Workers: 1}
		tables[i] = c.Run(trials, 1234)
	}
	for i := 1; i < len(tables); i++ {
		if tables[0] != tables[i] {
			t.Fatalf("campaign tables diverge:\nlegacy: %+v\n%v: %+v", tables[0], diffEngines[i], tables[i])
		}
	}
}

// TestEngineDifferentialSpawning pins fft-mt, the one benchmark that
// spawns threads. The compiled engine runs spawning modules unfused
// (compile.go), so the fused suites above never reach that stream. The
// reference run, seeded fault-armed sites and a SID-protected variant
// are each pinned at every thread count of the benchmark's input space.
func TestEngineDifferentialSpawning(t *testing.T) {
	b, ok := benchprog.ByName("fft-mt")
	if !ok {
		t.Fatal("benchmark lookup failed")
	}
	nSites := 8
	if testing.Short() {
		nSites = 2
	}
	ref, prot := b.MustModule(), sid.FullDuplication(b.MustModule())
	for _, m := range []*ir.Module{ref, prot} {
		img := interp.Lower(m)
		if img.LegacyOnly() {
			t.Fatal("fft-mt decodes legacy-only; compiled engine not exercised")
		}
		if st := interp.Compile(img).Stats(); st.Words != st.ImageWords {
			t.Fatalf("spawning module was fused: %+v", st)
		}
	}
	for _, threads := range []int64{1, 2, 4} {
		in := b.Reference
		in.I = append([]int64(nil), in.I...)
		in.I[1] = threads
		bind := b.Bind(in)
		name := fmt.Sprintf("%s/threads=%d", b.Name, threads)
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			t.Parallel()
			diffSites(t, name, ref, bind, b.ExecConfig(), 42, nSites)
			diffSites(t, name+"/dup", prot, bind, b.ExecConfig(), 7, nSites)
		})
	}
}

// TestDefaultEngineIsCompiled pins the production default: a Config{}
// run of every benchmark, the spawning one included, and of its full-DMR
// module executes on the compiled engine and never falls back to the
// legacy stepper.
func TestDefaultEngineIsCompiled(t *testing.T) {
	reg := obs.NewRegistry()
	interp.SetObs(reg)
	defer interp.SetObs(nil)
	all := benchprog.All()
	for _, b := range all {
		prot := sid.FullDuplication(b.MustModule())
		if interp.Lower(prot).LegacyOnly() {
			t.Errorf("%s: full-DMR module decodes legacy-only", b.Name)
		}
		for _, m := range []*ir.Module{b.MustModule(), prot} {
			res := interp.NewRunner(m, interp.Config{}).Run(b.Bind(b.Reference), nil, nil)
			if res.Status != interp.StatusOK {
				t.Fatalf("%s: reference run not OK: %v (%s)", b.Name, res.Status, res.Trap)
			}
		}
	}
	if n := reg.Counter("interp.runs.compiled").Value(); n != int64(2*len(all)) {
		t.Errorf("interp.runs.compiled = %d, want %d (two per benchmark)", n, 2*len(all))
	}
	if n := reg.Counter("interp.runs.legacy").Value(); n != 0 {
		t.Errorf("interp.runs.legacy = %d, want 0", n)
	}
}
