package interp_test

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/sid"
)

// The checkpoint differential suite pins Runner.Resume to a run from the
// start: for every benchmark and its full-DMR module, under every
// registered fault model, a trial resumed from a golden checkpoint must
// report the same Status, Trap, Output, DynInstrs, Cycles and OutputHash
// as the same trial executed from the first instruction. Besides seeded
// sites it covers the edges a restore can get wrong: the first and last
// instance of an instruction, an instance exactly at a checkpoint, a
// call whose frame is live across a checkpoint (its flip lands at the
// return), and a flipped pointer that loads stale stack words above sp.

// checkpointsPerSet mirrors the campaign engine's spacing.
const checkpointsPerSet = 32

// ckFixture is one module captured under its benchmark's reference input
// with a campaign's faulty-run configuration.
type ckFixture struct {
	name  string
	m     *ir.Module
	bind  interp.Binding
	cfg   interp.Config
	g     *fault.Golden
	ck    *interp.Checkpoints
	err   error
	samp  *fault.Sampler
	hotID int
}

func newCkFixture(t testing.TB, name string, m *ir.Module, bind interp.Binding, cfg interp.Config) *ckFixture {
	t.Helper()
	fx := &ckFixture{name: name, m: m, bind: bind}
	g, err := fault.RunGolden(m, bind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx.g = g
	fx.cfg = cfg
	fx.cfg.MaxDynInstrs = g.DynInstrs*fault.HangFactor + 10_000
	fx.ck, fx.err = interp.NewRunner(m, fx.cfg).Capture(fx.bind, g.DynInstrs/(checkpointsPerSet+1), 4<<20)
	fx.samp = fault.NewSampler(m, g, false)
	for _, id := range m.InjectableIDs(false) {
		if g.Profile.InstrCount[id] > g.Profile.InstrCount[fx.hotID] {
			fx.hotID = id
		}
	}
	return fx
}

// ckCompare runs f resumed from the fixture's checkpoints and from the
// start and fails on any observable difference. It returns what the
// resumed trial skipped.
func ckCompare(t testing.TB, fx *ckFixture, resumed, fresh *interp.Runner, label string, f interp.Fault) interp.Skip {
	t.Helper()
	fw := f
	want := fresh.Run(fx.bind, &fw, nil)
	got, skipped := resumed.Resume(fx.ck, &f)
	if got.Status != want.Status || got.Trap != want.Trap ||
		got.DynInstrs != want.DynInstrs || got.Cycles != want.Cycles ||
		got.OutputHash != want.OutputHash || !eqWords(got.Output, want.Output) {
		t.Fatalf("%s %s %+v: resumed (skipped %+v) %v %q dyn=%d cyc=%d hash=%#x out=%d words; from start %v %q dyn=%d cyc=%d hash=%#x out=%d words",
			fx.name, label, f, skipped, got.Status, got.Trap, got.DynInstrs, got.Cycles, got.OutputHash, len(got.Output),
			want.Status, want.Trap, want.DynInstrs, want.Cycles, want.OutputHash, len(want.Output))
	}
	return skipped
}

func eqWords(a, b []uint64) bool {
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

// edgeSites returns the model-independent edge-case instances of fx as
// (label, instruction, dynamic index) triples.
func (fx *ckFixture) edgeSites() (labels []string, ids []int, dyn []int64) {
	add := func(label string, id int, k int64) {
		labels, ids, dyn = append(labels, label), append(ids, id), append(dyn, k)
	}
	count := fx.g.Profile.InstrCount[fx.hotID]
	add("first-instance", fx.hotID, 0)
	add("last-instance", fx.hotID, count-1)
	if mid := fx.ck.Len() / 2; fx.ck.Len() > 0 {
		if k := interp.CheckpointFlips(fx.ck, mid, fx.hotID); k < count {
			add("at-checkpoint", fx.hotID, k)
		}
	}
	for i := 0; i < fx.ck.Len(); i++ {
		if live := interp.CheckpointLiveCalls(fx.ck, i); len(live) > 0 {
			id := live[len(live)-1]
			add("live-call", id, interp.CheckpointFlips(fx.ck, i, id))
			break
		}
	}
	if id, ok := fx.foldFeeder(); ok && fx.ck.Len() > 0 {
		if k := interp.CheckpointFlips(fx.ck, fx.ck.Len()/2, id); k < fx.g.Profile.InstrCount[id] {
			add("feeds-fold", id, k)
		}
	}
	return labels, ids, dyn
}

// foldFeeder returns an injectable instruction whose result an op of the
// specialized stream's folds reads.
func (fx *ckFixture) foldFeeder() (int, bool) {
	folded := map[int]bool{}
	for _, id := range interp.SpecFolds(fx.m) {
		folded[id] = true
	}
	for _, fn := range fx.m.Funcs {
		def := map[int]*ir.Instr{}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.HasResult() {
					def[in.Dst] = in
				}
			}
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if !folded[in.ID] {
					continue
				}
				for _, a := range in.Args {
					if d := def[a.Reg]; a.Kind == ir.OperReg && d != nil && fx.g.Profile.InstrCount[d.ID] > 0 {
						return d.ID, true
					}
				}
			}
		}
	}
	return 0, false
}

// staleStackSite returns a fault that redirects a load into the stale
// words above sp at a checkpoint: the first instance, at or after the
// first checkpoint whose sp lies at or below the highest address the run
// stores to, of a gep whose result the next instruction loads from gets
// that address XORed in. ok is false when the run never stores above a
// checkpoint's sp (the benchmarks keep their data in globals) or no such
// gep executes after it.
func (fx *ckFixture) staleStackSite() (f interp.Fault, ok bool) {
	cfg := fx.cfg
	cfg.Engine = interp.EngineLegacy
	trace := func(hook func(in *ir.Instr, regs []uint64, result uint64, hasResult bool)) {
		tr := &interp.Tracer{Hook: func(_ *ir.Function, in *ir.Instr, regs []uint64, result uint64, hasResult bool) {
			hook(in, regs, result, hasResult)
		}}
		interp.NewRunner(fx.m, cfg).RunTraced(fx.bind, nil, tr)
	}
	var top uint64
	trace(func(in *ir.Instr, regs []uint64, _ uint64, _ bool) {
		if in.Op == ir.OpStore && in.Args[1].Kind == ir.OperReg {
			top = max(top, regs[in.Args[1].Reg])
		}
	})
	at := -1
	for i := 0; i < fx.ck.Len() && at < 0; i++ {
		if uint64(interp.CheckpointSP(fx.ck, i)) <= top {
			at = i
		}
	}
	if at < 0 {
		return f, false
	}
	feedsLoad := map[int]bool{}
	for _, fn := range fx.m.Funcs {
		for _, b := range fn.Blocks {
			for j, in := range b.Instrs[:len(b.Instrs)-1] {
				next := b.Instrs[j+1]
				if in.Op == ir.OpGEP && next.Op == ir.OpLoad &&
					next.Args[0].Kind == ir.OperReg && next.Args[0].Reg == in.Dst {
					feedsLoad[in.ID] = true
				}
			}
		}
	}
	seen := map[int]int64{}
	trace(func(in *ir.Instr, _ []uint64, result uint64, hasResult bool) {
		if ok || !hasResult || !feedsLoad[in.ID] {
			return
		}
		k := seen[in.ID]
		seen[in.ID]++
		if k >= interp.CheckpointFlips(fx.ck, at, in.ID) {
			f, ok = interp.Fault{InstrID: in.ID, DynIndex: k, Mask: result ^ top}, true
		}
	})
	return f, ok
}

// convergeSites returns faults, labeled by kind, whose trials re-join the
// golden run at a checkpoint after their fault fired: on every module a
// zero-effect stuck-at on the hottest instruction, and on the converge
// program a flip of the value that is stored and then overwritten
// ("overwritten") and a flip of the value only an emit reads
// ("emitted-sdc", which converges with a corrupted output prefix). Each
// instance lies at the middle checkpoint's flip count of its instruction.
func (fx *ckFixture) convergeSites() (labels []string, sites []interp.Fault) {
	if fx.ck.Len() < 2 {
		return nil, nil
	}
	add := func(label string, id int, op interp.FaultOp) {
		if k := interp.CheckpointFlips(fx.ck, fx.ck.Len()/2, id); k < fx.g.Profile.InstrCount[id] {
			labels = append(labels, label)
			sites = append(sites, interp.Fault{InstrID: id, DynIndex: k, Op: op})
		}
	}
	add("zero-stuck-at", fx.hotID, interp.FaultStuckAt0) // Mask 0: the value is unchanged
	if fx.name != "converge" {
		return labels, sites
	}
	for _, in := range fx.m.Instrs {
		if in.Op != ir.OpMul || in.Args[1].Kind != ir.OperConst {
			continue
		}
		switch in.Args[1].Imm {
		case 3:
			add("overwritten", in.ID, interp.FaultXor)
		case 7:
			add("emitted-sdc", in.ID, interp.FaultXor)
		}
	}
	return labels, sites
}

// convergeProgram, compiled without optimization, holds the two faults
// that change the state and still re-join golden: the value of r * 3 is
// stored to t and overwritten by the next statement before any load, and
// r * 7 is read only by the emit, so its flip corrupts one output word.
// Both registers are rewritten in the next iteration.
const convergeProgram = `
func main(n int) {
	var t int = 0;
	var s int = 0;
	for (var r int = 0; r < 300; r = r + 1) {
		t = r * 3;
		t = r + n;
		s = s + t;
		emiti(r * 7);
	}
	emiti(s);
}
`

// stackProgram, compiled without optimization, covers what the
// benchmarks do not: it keeps its data on the stack (fill's locals stay
// behind above sp after it returns, where the stale-stack site points a
// flipped gep), and its unfolded constant arithmetic is specialized to
// constants in the fault-free stream the capture runs, so a restore that
// kept that stream would mask flips upstream of the folds.
const stackProgram = `
func fill(n int) int {
	var tmp[64] int;
	for (var i int = 0; i < 64; i = i + 1) { tmp[i] = i * 7 + n; }
	var s int = 0;
	for (var i int = 0; i < 64; i = i + 1) { s = s + tmp[i]; }
	return s;
}

func main(n int) {
	var a[8] int;
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i; }
	var s int = fill(n);
	for (var r int = 0; r < 200; r = r + 1) {
		for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] * (r + 1) + (2 + 3) * 7; }
	}
	emiti(s);
}
`

// ckModule is one module of the suite with its reference input.
type ckModule struct {
	name string
	m    *ir.Module
	bind interp.Binding
	cfg  interp.Config
}

// checkpointModules returns every benchmark and the stack program, each
// unprotected and fully duplicated, and the converge program.
func checkpointModules(t *testing.T) []ckModule {
	stack, err := minicc.Compile("stack.mc", stackProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(interp.SpecFolds(stack)) == 0 {
		t.Fatal("stack program has no specialized folds")
	}
	var mods []ckModule
	add := func(name string, m *ir.Module, bind interp.Binding, cfg interp.Config) {
		mods = append(mods, ckModule{name, m, bind, cfg}, ckModule{name + "/dup", sid.FullDuplication(m), bind, cfg})
	}
	for _, b := range benchprog.All() {
		add(b.Name, b.MustModule(), b.Bind(b.Reference), b.ExecConfig())
	}
	add("stack", stack, interp.Binding{Args: []uint64{5}}, interp.Config{})
	conv, err := minicc.Compile("converge.mc", convergeProgram)
	if err != nil {
		t.Fatal(err)
	}
	mods = append(mods, ckModule{"converge", conv, interp.Binding{Args: []uint64{4}}, interp.Config{}})
	return mods
}

func TestCheckpointDifferential(t *testing.T) {
	nSites := 6
	if testing.Short() {
		nSites = 2
	}
	var liveCalls, staleLoads, foldFeeds atomic.Int64
	var converged sync.Map // convergeSites kind -> *atomic.Int64
	t.Run("modules", func(t *testing.T) {
		for _, cm := range checkpointModules(t) {
			cm := cm
			t.Run(cm.name, func(t *testing.T) {
				t.Parallel()
				fx := newCkFixture(t, cm.name, cm.m, cm.bind, cm.cfg)
				if strings.HasPrefix(cm.name, "fft-mt") {
					if !errors.Is(fx.err, interp.ErrCaptureSpawn) {
						t.Fatalf("spawning module captured (err %v)", fx.err)
					}
					return
				}
				if fx.err != nil {
					t.Fatal(fx.err)
				}
				if res := fx.ck.Result(); res.Status != interp.StatusOK ||
					res.DynInstrs != fx.g.DynInstrs || res.OutputHash != fx.g.OutputHash {
					t.Fatalf("capture run %+v does not reproduce golden (dyn %d)", res, fx.g.DynInstrs)
				}
				if n := fx.ck.Len(); n < checkpointsPerSet/2 || n > checkpointsPerSet+1 {
					t.Fatalf("captured %d checkpoints, want about %d", n, checkpointsPerSet)
				}
				resumed, fresh := interp.NewRunner(cm.m, fx.cfg), interp.NewRunner(cm.m, fx.cfg)
				labels, ids, dyn := fx.edgeSites()
				var restores int
				for mi, mn := range fault.ModelNames() {
					model, _ := fault.ModelByName(mn)
					rng := rand.New(rand.NewSource(int64(31 + mi)))
					for i := 0; i < nSites; i++ {
						f, ok := fx.samp.RandomSiteModel(model, rng)
						if !ok {
							t.Fatal("no injectable sites")
						}
						if ckCompare(t, fx, resumed, fresh, mn+"/seeded", f).Prefix > 0 {
							restores++
						}
					}
					for j := range ids {
						f, ok := fx.samp.SiteForModel(model, ids[j], rng)
						if !ok {
							t.Fatalf("%s: no site for instruction %d", labels[j], ids[j])
						}
						f.DynIndex = dyn[j]
						skipped := ckCompare(t, fx, resumed, fresh, mn+"/"+labels[j], f)
						if labels[j] != "first-instance" && labels[j] != "last-instance" && skipped.Prefix == 0 {
							t.Fatalf("%s site ran from the start", labels[j])
						}
						switch labels[j] {
						case "live-call":
							liveCalls.Add(1)
						case "feeds-fold":
							foldFeeds.Add(1)
						}
					}
				}
				cLabels, cSites := fx.convergeSites()
				for j, f := range cSites {
					skipped := ckCompare(t, fx, resumed, fresh, cLabels[j], f)
					if skipped.Suffix == 0 {
						t.Fatalf("%s site %+v did not converge", cLabels[j], f)
					}
					if sdc := fresh.Run(fx.bind, &f, nil).OutputHash != fx.g.OutputHash; sdc != (cLabels[j] == "emitted-sdc") {
						t.Fatalf("%s site %+v: output differs from golden: %v", cLabels[j], f, sdc)
					}
					n, _ := converged.LoadOrStore(cLabels[j], new(atomic.Int64))
					n.(*atomic.Int64).Add(1)
				}
				if f, ok := fx.staleStackSite(); ok {
					if ckCompare(t, fx, resumed, fresh, "stale-stack", f).Prefix == 0 {
						t.Fatal("stale-stack site ran from the start")
					}
					staleLoads.Add(1)
				}
				if restores == 0 {
					t.Fatal("no seeded site resumed from a checkpoint")
				}
			})
		}
	})
	if liveCalls.Load() == 0 || staleLoads.Load() == 0 || foldFeeds.Load() == 0 {
		t.Errorf("edge cases not exercised: %d live-call, %d stale-stack, %d feeds-fold sites",
			liveCalls.Load(), staleLoads.Load(), foldFeeds.Load())
	}
	for _, kind := range []string{"zero-stuck-at", "overwritten", "emitted-sdc"} {
		n, _ := converged.LoadOrStore(kind, new(atomic.Int64))
		t.Logf("%s: %d modules converged", kind, n.(*atomic.Int64).Load())
		if n.(*atomic.Int64).Load() == 0 {
			t.Errorf("no %s site converged", kind)
		}
	}
}

// fuzzFixtures caches one fixture per module of the fuzz space: the
// eleven single-threaded benchmarks, then their full-DMR modules.
var fuzzFixtures sync.Map

func fuzzFixture(t *testing.T, i int) *ckFixture {
	if v, ok := fuzzFixtures.Load(i); ok {
		return v.(*ckFixture)
	}
	bs := benchprog.Eleven()
	b := bs[i%len(bs)]
	m, name := b.MustModule(), b.Name
	if i >= len(bs) {
		m, name = sid.FullDuplication(m), name+"/dup"
	}
	fx := newCkFixture(t, name, m, b.Bind(b.Reference), b.ExecConfig())
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	v, _ := fuzzFixtures.LoadOrStore(i, fx)
	return v.(*ckFixture)
}

// FuzzCheckpointRestore resumes a fuzzed trial (benchmark or its full-DMR
// module, a sampled site, a bit rotation, a fault model) from golden
// checkpoints and pins it to the same trial run from the start.
func FuzzCheckpointRestore(f *testing.F) {
	for i := range 2 * len(benchprog.Eleven()) {
		f.Add(uint8(i), uint64(i)*7919, uint8(i), uint8(i))
	}
	// Pathfinder trials that resume from a checkpoint and then converge
	// to a later one (a bit flip and a stuck-at-0).
	f.Add(uint8(0), uint64(1), uint8(1), uint8(0))
	f.Add(uint8(0), uint64(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, bench uint8, site uint64, bit uint8, model uint8) {
		fx := fuzzFixture(t, int(bench)%(2*len(benchprog.Eleven())))
		names := fault.ModelNames()
		mn := names[int(model)%len(names)]
		mdl, _ := fault.ModelByName(mn)
		flt, ok := fx.samp.RandomSiteModel(mdl, rand.New(rand.NewSource(int64(site))))
		if !ok {
			t.Skip("no injectable sites")
		}
		if flt.Mask == 0 {
			flt.Bit = uint(bit)
		} else {
			flt.Mask = bits.RotateLeft64(flt.Mask, int(bit))
		}
		ckCompare(t, fx, interp.NewRunner(fx.m, fx.cfg), interp.NewRunner(fx.m, fx.cfg), fmt.Sprintf("fuzz/%s", mn), flt)
	})
}

// TestCheckpointBudget pins the byte budget: a capture over budget thins
// its checkpoints to an evenly spaced subset that fits, and trials still
// resume from it exactly.
func TestCheckpointBudget(t *testing.T) {
	b, _ := benchprog.ByName("hpccg")
	m := sid.FullDuplication(b.MustModule())
	full := newCkFixture(t, "hpccg/dup", m, b.Bind(b.Reference), b.ExecConfig())
	if full.err != nil {
		t.Fatal(full.err)
	}
	budget := full.ck.Bytes() / 3
	ck, err := interp.NewRunner(m, full.cfg).Capture(full.bind, full.g.DynInstrs/(checkpointsPerSet+1), budget)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Bytes() > budget || ck.Len() == 0 || ck.Len() >= full.ck.Len() {
		t.Fatalf("budget %d: %d checkpoints in %d bytes (unbounded: %d in %d)",
			budget, ck.Len(), ck.Bytes(), full.ck.Len(), full.ck.Bytes())
	}
	// Survivors sit on the doubled grid: every one is a checkpoint of the
	// unbounded capture.
	for i := 0; i < ck.Len(); i++ {
		found := false
		for j := 0; j < full.ck.Len() && !found; j++ {
			found = interp.CheckpointFlips(ck, i, full.hotID) == interp.CheckpointFlips(full.ck, j, full.hotID)
		}
		if !found {
			t.Fatalf("checkpoint %d is off the unbounded capture's grid", i)
		}
	}
	thin := *full
	thin.ck = ck
	resumed, fresh := interp.NewRunner(m, full.cfg), interp.NewRunner(m, full.cfg)
	rng := rand.New(rand.NewSource(5))
	var restores int
	for i := 0; i < 8; i++ {
		f, _ := full.samp.RandomSite(rng)
		if ckCompare(t, &thin, resumed, fresh, "thinned", f).Prefix > 0 {
			restores++
		}
	}
	if restores == 0 {
		t.Fatal("no trial resumed from the thinned checkpoints")
	}
}
