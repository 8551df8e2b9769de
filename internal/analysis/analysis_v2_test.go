package analysis

// Unit tests for the analysis v2 layer: value ranges (widening, branch
// refinement), memory SSA (shadowed stores), the flip-image algebra
// behind range-masking proofs, detection proofs, and the triage v3
// verdicts they feed. The differential fact checker in replay_test.go
// covers the same analyses against concrete benchmark executions.

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
)

// rangeKernel builds:
//
//	entry: x = and p0, 63; c = icmp lt x, 10; condbr c, then, else
//	then:  a = add x, 1; br merge
//	else:  z = sub x, 10; br merge
//	merge: r = phi [a, then] [z, else]; emiti r; ret
func rangeKernel(t *testing.T) (*ir.Module, map[string]ir.Operand) {
	t.Helper()
	m := ir.NewModule("ranges")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)

	then := b.NewBlock("then")
	els := b.NewBlock("else")
	merge := b.NewBlock("merge")

	x := b.Bin(ir.OpAnd, p0, ir.ConstI(63))
	c := b.ICmp(ir.PredLT, x, ir.ConstI(10))
	b.CondBr(c, then, els)

	b.SetBlock(then)
	a := b.Bin(ir.OpAdd, x, ir.ConstI(1))
	b.Br(merge)

	b.SetBlock(els)
	z := b.Bin(ir.OpSub, x, ir.ConstI(10))
	b.Br(merge)

	b.SetBlock(merge)
	r := b.Phi(ir.I64, []ir.Operand{a, z}, []*ir.Block{then, els})
	b.CallB(ir.BuiltinEmitI, r)
	b.RetVoid()

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, map[string]ir.Operand{"x": x, "a": a, "z": z, "r": r}
}

func TestValueRangesBranchRefinement(t *testing.T) {
	m, regs := rangeKernel(t)
	f := m.Funcs[0]
	vr := BuildRanges(f, BuildCFG(f), BuildDefUse(f))

	want := map[string]Interval{
		"x": {0, 63},
		// then-edge refines x to [0, 9]; else-edge to [10, 63].
		"a": {1, 10},
		"z": {0, 53},
		"r": {0, 53},
	}
	for name, iv := range want {
		if got := vr.At(regs[name].Reg); got != iv {
			t.Errorf("%s interval = [%d, %d], want [%d, %d]", name, got.Lo, got.Hi, iv.Lo, iv.Hi)
		}
	}
}

func TestValueRangesLoopWidening(t *testing.T) {
	// i counts 0..99: widening must not lose the refined bound from the
	// exit test (header->body edge refines i < 100).
	m := ir.NewModule("loop")
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)

	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)

	b.SetBlock(header)
	// Incoming operand for the backedge is patched after building body.
	i := b.Phi(ir.I64, []ir.Operand{ir.ConstI(0), ir.ConstI(0)}, []*ir.Block{f.Blocks[0], body})
	c := b.ICmp(ir.PredLT, i, ir.ConstI(100))
	b.CondBr(c, body, exit)

	b.SetBlock(body)
	next := b.Bin(ir.OpAdd, i, ir.ConstI(1))
	b.Br(header)

	b.SetBlock(exit)
	b.CallB(ir.BuiltinEmitI, i)
	b.RetVoid()

	// Patch the backedge phi input to the increment.
	phi := f.Blocks[header.Index].Instrs[0]
	phi.Args[1] = next

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	vr := BuildRanges(f, BuildCFG(f), BuildDefUse(f))
	if got := vr.At(i.Reg); got != (Interval{0, 100}) {
		t.Errorf("phi interval = [%d, %d], want [0, 100]", got.Lo, got.Hi)
	}
	if got := vr.At(next.Reg); got != (Interval{1, 100}) {
		t.Errorf("increment interval = [%d, %d], want [1, 100]", got.Lo, got.Hi)
	}
}

func TestValueRangesUnboundedLoopWidens(t *testing.T) {
	// Same loop shape but bounded by an unknown parameter: the phi must
	// widen and TERMINATE. The converged interval is full — the exit
	// test compares two registers, which edge refinement deliberately
	// does not handle, so nothing bounds the counter and the widened
	// add overflows. Under wrapping semantics overflow-to-full is the
	// only sound answer (saturating Hi at MaxInt64 would exclude the
	// wrapped negative values a real overflow produces).
	m := ir.NewModule("loop2")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	n := ir.Reg(0, ir.I64)

	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)

	b.SetBlock(header)
	i := b.Phi(ir.I64, []ir.Operand{ir.ConstI(0), ir.ConstI(0)}, []*ir.Block{f.Blocks[0], body})
	c := b.ICmp(ir.PredLT, i, n)
	b.CondBr(c, body, exit)

	b.SetBlock(body)
	next := b.Bin(ir.OpAdd, i, ir.ConstI(1))
	b.Br(header)

	b.SetBlock(exit)
	b.CallB(ir.BuiltinEmitI, i)
	b.RetVoid()

	phi := f.Blocks[header.Index].Instrs[0]
	phi.Args[1] = next

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	vr := BuildRanges(f, BuildCFG(f), BuildDefUse(f))
	got := vr.At(i.Reg)
	if !got.Full() {
		t.Errorf("unbounded phi interval = [%d, %d], want full", got.Lo, got.Hi)
	}
	if !got.Contains(0) || !got.Contains(math.MaxInt64) {
		t.Errorf("unbounded phi interval [%d, %d] drops reachable values", got.Lo, got.Hi)
	}
}

func TestFlipImageCoversAllFlips(t *testing.T) {
	// flipImage(r, bit) must contain x ^ (1<<bit) for every x in r.
	cases := []Interval{
		{0, 0}, {0, 7}, {5, 11}, {-3, 4}, {8, 15}, {100, 163},
		{-64, -33}, {math.MaxInt64 - 5, math.MaxInt64},
	}
	for _, r := range cases {
		for bit := uint(0); bit < 64; bit++ {
			img := flipImage(r, bit)
			for x := r.Lo; ; x++ {
				y := int64(uint64(x) ^ (1 << bit))
				if !img.Contains(y) {
					t.Fatalf("flipImage([%d,%d], %d) = [%d,%d] misses %d^bit = %d",
						r.Lo, r.Hi, bit, img.Lo, img.Hi, x, y)
				}
				if x == r.Hi {
					break
				}
			}
		}
	}
}

// shadowKernel: v = add p0, 1 is stored then immediately overwritten
// before any load; the store is shadowed and v provably masked.
func shadowKernel(t *testing.T) (*ir.Module, int) {
	t.Helper()
	m := ir.NewModule("shadow")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)

	slot := b.Alloca(ir.ConstI(1))
	v := b.Bin(ir.OpAdd, p0, ir.ConstI(1))
	b.Store(v, slot)
	b.Store(ir.ConstI(2), slot)
	x := b.Load(ir.I64, slot)
	b.CallB(ir.BuiltinEmitI, x)
	b.RetVoid()

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// v's instruction ID: the add is the second instruction.
	return m, f.Blocks[0].Instrs[1].ID
}

func TestMemSSAShadowedStore(t *testing.T) {
	m, vID := shadowKernel(t)
	fa := FactsFor(m)
	if len(fa.Mem.Shadowed) != 1 {
		t.Fatalf("shadowed stores = %v, want exactly one", fa.Mem.Shadowed)
	}
	tri := TriageFor(m)
	if got := tri.DemandedBits(vID); got != 0 {
		t.Fatalf("shadow-stored value demands %#x bits, want 0", got)
	}
	verdict, proof := tri.Site(vID, 3)
	if verdict != VerdictProvablyMasked || proof != ProofStoreShadowed {
		t.Fatalf("verdict = %v/%v, want masked/store-shadowed", verdict, proof)
	}
	// The proof is value-local only: it must hold for stuck-at models too.
	if !tri.MaskedFor(FaultClass{ValueLocal: true}, vID, 3, 0) {
		t.Error("store-shadowed proof rejected for a value-local class")
	}
	if tri.MaskedFor(FaultClass{}, vID, 3, 0) {
		t.Error("store-shadowed proof accepted for a non-value-local class")
	}
}

func TestMemSSAInterveningLoadBlocksShadowing(t *testing.T) {
	m := ir.NewModule("noshadow")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)

	slot := b.Alloca(ir.ConstI(1))
	b.Store(p0, slot)
	x := b.Load(ir.I64, slot) // reads the first store: not shadowed
	b.Store(ir.ConstI(2), slot)
	b.CallB(ir.BuiltinEmitI, x)
	b.RetVoid()

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	fa := FactsFor(m)
	if len(fa.Mem.Shadowed) != 0 {
		t.Fatalf("shadowed stores = %v, want none (intervening load)", fa.Mem.Shadowed)
	}
}

// rangeMaskKernel: x = and p0, 7 (range [0,7]) feeds only icmp lt x, 16,
// which no single-bit flip of x's low demanded bits can change.
func rangeMaskKernel(t *testing.T) (*ir.Module, int) {
	t.Helper()
	m := ir.NewModule("rangemask")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)

	x := b.Bin(ir.OpAnd, p0, ir.ConstI(7))
	c := b.ICmp(ir.PredLT, x, ir.ConstI(16))
	b.CallB(ir.BuiltinEmitI, c)
	b.RetVoid()

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, f.Blocks[0].Instrs[0].ID
}

func TestRangeMaskedAbsorbedCompare(t *testing.T) {
	m, xID := rangeMaskKernel(t)
	tri := TriageFor(m)
	// Bits 0..2 are demanded (the And keeps them) yet provably absorbed:
	// any flip keeps x in [0, 15], so the compare result is invariant.
	dem := tri.DemandedBits(xID)
	if dem&7 != 7 {
		t.Fatalf("demanded bits %#x, want low three demanded", dem)
	}
	rm := tri.RangeMaskedBits(xID)
	if rm&7 != 7 {
		t.Fatalf("range-masked bits %#x, want low three absorbed", rm)
	}
	verdict, proof := tri.Site(xID, 1)
	if verdict != VerdictProvablyMasked || proof != ProofRangeMasked {
		t.Fatalf("bit 1 verdict = %v/%v, want masked/range-masked", verdict, proof)
	}
	// Range proofs reason about single-bit images only: a class without
	// BitsBounded (whole-value corruption) must not use them.
	if tri.MaskedFor(FaultClass{ValueLocal: true}, xID, 1, 0) {
		t.Error("range proof accepted for a non-bits-bounded class")
	}
	// Two perturbed bits exceed what the per-bit argument covers.
	if tri.MaskedFor(DefaultFaultClass, xID, 0, 0b11) {
		t.Error("range proof accepted for a two-bit mask")
	}
}

// detectKernel duplicates v by hand: v and its clone feed an icmp eq
// followed immediately by detect, the pattern sid.Duplicate emits.
func detectKernel(t *testing.T) (*ir.Module, int) {
	t.Helper()
	m := ir.NewModule("detect")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)

	v := b.Bin(ir.OpAdd, p0, ir.ConstI(3))
	dup := b.Bin(ir.OpAdd, p0, ir.ConstI(3))
	c := b.ICmp(ir.PredEQ, v, dup)
	b.Detect(c)
	b.CallB(ir.BuiltinEmitI, v)
	b.RetVoid()

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, f.Blocks[0].Instrs[0].ID
}

func TestProvablyDetectedRequiresAlwaysFlips(t *testing.T) {
	m, vID := detectKernel(t)
	tri := TriageFor(m)

	verdict, proof := tri.ClassifyFor(DefaultFaultClass, vID, 5, 0)
	if verdict != VerdictProvablyDetected || proof != ProofDupDetected {
		t.Fatalf("xor-class verdict = %v/%v, want detected/dup-detected", verdict, proof)
	}
	// A stuck-at fault may be the identity perturbation: the detector
	// stays quiet on it, so the proof must not fire.
	stuck := FaultClass{ValueLocal: true, BitsBounded: true}
	verdict, _ = tri.ClassifyFor(stuck, vID, 5, 0)
	if verdict == VerdictProvablyDetected {
		t.Fatal("detection proof accepted for a class that may not flip")
	}
	// Multi-bit XOR masks still provably differ from the golden value.
	verdict, _ = tri.ClassifyFor(DefaultFaultClass, vID, 0, 0b101000)
	if verdict != VerdictProvablyDetected {
		t.Fatalf("multi-bit xor verdict = %v, want detected", verdict)
	}
}

func TestFactsSingleBuildPerSnapshot(t *testing.T) {
	m, _ := rangeKernel(t)
	before := factsBuilds.Load()
	// Concurrent first use: racing callers wait for the one build.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			switch i % 3 {
			case 0:
				_ = TriageFor(m)
			case 1:
				_ = FactsFor(m)
			default:
				_ = BuildBoundaries(m)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	tri := TriageFor(m)
	_ = tri.Report()
	_ = FactsFor(m)
	_ = TriageFor(m).Report()
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.HasResult() {
					tri.Site(in.ID, 0)
				}
			}
		}
	}
	if got := factsBuilds.Load() - before; got != 1 {
		t.Fatalf("facts built %d times for one module snapshot, want 1", got)
	}
	// A new Finalize generation re-analyzes exactly once.
	m.Finalize()
	_ = TriageFor(m)
	_ = FactsFor(m)
	if got := factsBuilds.Load() - before; got != 2 {
		t.Fatalf("facts built %d times across two snapshots, want 2", got)
	}
}

// Derived values live as long as their snapshot: once the module is
// re-finalized, nothing keeps the old snapshot's facts reachable.
func TestFactsFreedAfterFinalize(t *testing.T) {
	m, _ := rangeKernel(t)
	freed := make(chan struct{})
	runtime.SetFinalizer(FactsFor(m), func(*Facts) { close(freed) })
	m.Finalize()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("facts of a replaced snapshot are still reachable")
}
