package sid

import (
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/passes"
)

const kernelSrc = `
var data[] int;
func main(n int) {
	var s int = 0;
	var t int = 0;
	for (var i int = 0; i < n; i = i + 1) {
		var v int = data[i % len(data)];
		s = s + v * 3;
		if (v > 4) { t = t + 1; }
	}
	emiti(s);
	emiti(t);
}`

func buildKernel(t testing.TB) (*ir.Module, interp.Binding) {
	t.Helper()
	m, err := minicc.Compile("k.mc", kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Optimize(m); err != nil {
		t.Fatal(err)
	}
	bind := interp.Binding{
		Args:    []uint64{40},
		Globals: map[string][]uint64{"data": {3, 8, 1, 6, 2, 9, 4, 5}},
	}
	return m, bind
}

func measureKernel(t testing.TB) (*ir.Module, interp.Binding, *Measurement) {
	t.Helper()
	m, bind := buildKernel(t)
	meas, err := Measure(m, bind, Config{FaultsPerInstr: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, bind, meas
}

func TestMeasureProfiles(t *testing.T) {
	m, _, meas := measureKernel(t)
	var costSum float64
	for id := 0; id < m.NumInstrs(); id++ {
		costSum += meas.Cost[id]
		if meas.SDCProb[id] < 0 || meas.SDCProb[id] > 1 {
			t.Errorf("instr %d SDC prob %f", id, meas.SDCProb[id])
		}
		wantB := meas.SDCProb[id] * meas.Cost[id]
		if math.Abs(meas.Benefit[id]-wantB) > 1e-12 {
			t.Errorf("instr %d benefit %g != sdc*cost %g", id, meas.Benefit[id], wantB)
		}
	}
	if math.Abs(costSum-1) > 1e-9 {
		t.Errorf("cost sum = %f, want 1", costSum)
	}
}

func TestSelectRespectsBudget(t *testing.T) {
	m, _, meas := measureKernel(t)
	for _, level := range []float64{0.1, 0.3, 0.5, 0.7} {
		for _, method := range []Method{MethodDP, MethodGreedy} {
			sel := Select(m, meas, level, method)
			if sel.CostUsed > level+0.01 {
				t.Errorf("level %.1f method %d: cost used %f exceeds budget", level, method, sel.CostUsed)
			}
			if sel.ExpectedCoverage < 0 || sel.ExpectedCoverage > 1+1e-9 {
				t.Errorf("expected coverage %f out of range", sel.ExpectedCoverage)
			}
			for _, id := range sel.Chosen {
				if !Duplicable(m, m.Instrs[id]) {
					t.Errorf("selected non-duplicable instr %d (%s)", id, m.Instrs[id].Op)
				}
			}
		}
	}
}

func TestSelectMonotoneInLevel(t *testing.T) {
	m, _, meas := measureKernel(t)
	prev := -1.0
	for _, level := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		sel := Select(m, meas, level, MethodDP)
		if sel.ExpectedCoverage < prev-1e-9 {
			t.Errorf("expected coverage decreased at level %.1f: %f -> %f", level, prev, sel.ExpectedCoverage)
		}
		prev = sel.ExpectedCoverage
	}
}

func TestDPBeatsOrMatchesGreedy(t *testing.T) {
	m, _, meas := measureKernel(t)
	benefitOf := func(sel Selection) float64 {
		var b float64
		for _, id := range sel.Chosen {
			b += meas.Benefit[id]
		}
		return b
	}
	for _, level := range []float64{0.2, 0.4, 0.6} {
		dp := benefitOf(Select(m, meas, level, MethodDP))
		gr := benefitOf(Select(m, meas, level, MethodGreedy))
		if dp+1e-12 < gr {
			t.Errorf("level %.1f: DP benefit %g < greedy %g", level, dp, gr)
		}
	}
}

func TestIsChosen(t *testing.T) {
	sel := Selection{Chosen: []int{2, 5, 9}}
	for _, id := range []int{2, 5, 9} {
		if !sel.IsChosen(id) {
			t.Errorf("IsChosen(%d) = false", id)
		}
	}
	for _, id := range []int{0, 3, 10} {
		if sel.IsChosen(id) {
			t.Errorf("IsChosen(%d) = true", id)
		}
	}
}

func TestDuplicatePreservesSemantics(t *testing.T) {
	m, bind, meas := measureKernel(t)
	sel := Select(m, meas, 0.5, MethodDP)
	if len(sel.Chosen) == 0 {
		t.Fatal("selection is empty")
	}
	prot := Duplicate(m, sel.Chosen)
	if err := ir.Verify(prot); err != nil {
		t.Fatalf("protected module invalid: %v", err)
	}
	if prot.NumInstrs() != m.NumInstrs()+3*len(sel.Chosen) {
		t.Errorf("protected has %d instrs, want %d+3*%d", prot.NumInstrs(), m.NumInstrs(), len(sel.Chosen))
	}

	r1 := interp.NewRunner(m, interp.Config{})
	r2 := interp.NewRunner(prot, interp.Config{})
	a := r1.Run(bind, nil, nil)
	b := r2.Run(bind, nil, nil)
	if b.Status != interp.StatusOK {
		t.Fatalf("protected run: %v (%s)", b.Status, b.Trap)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatalf("output lengths differ: %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("output[%d] differs: %d vs %d", i, a.Output[i], b.Output[i])
		}
	}
	if b.DynInstrs <= a.DynInstrs {
		t.Errorf("protected run not longer: %d vs %d", b.DynInstrs, a.DynInstrs)
	}
}

func TestDuplicateDetectsFaultsAtProtectedInstr(t *testing.T) {
	m, bind, meas := measureKernel(t)
	sel := Select(m, meas, 0.5, MethodDP)
	prot := Duplicate(m, sel.Chosen)
	mapping := ProtectedMap(m, sel.Chosen)

	golden, err := fault.RunGolden(prot, bind, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := interp.NewRunner(prot, interp.Config{MaxDynInstrs: golden.DynInstrs * 20})

	for _, origID := range sel.Chosen {
		newID := mapping[origID]
		in := prot.Instrs[newID]
		if in.Op != m.Instrs[origID].Op {
			t.Fatalf("mapping wrong: instr %d maps to %s, orig is %s", origID, in.Op, m.Instrs[origID].Op)
		}
		count := golden.Profile.InstrCount[newID]
		if count == 0 {
			continue
		}
		// Inject into the first dynamic instance, flipping a high bit so
		// the corruption is unambiguous.
		f := interp.Fault{InstrID: newID, DynIndex: 0, Bit: in.Type.Bits() - 2}
		res := r.Run(bind, &f, nil)
		if res.Status != interp.StatusDetected {
			t.Errorf("fault at protected instr %d (%s) not detected: %v output=%v",
				origID, in.Op, res.Status, res.Output)
		}
	}
}

func TestProtectedMapIdentityWhenNothingChosen(t *testing.T) {
	m, _ := buildKernel(t)
	mapping := ProtectedMap(m, nil)
	for id := 0; id < m.NumInstrs(); id++ {
		if mapping[id] != id {
			t.Fatalf("mapping[%d] = %d with empty selection", id, mapping[id])
		}
	}
}

func TestApplyAndEvaluateCoverage(t *testing.T) {
	m, bind := buildKernel(t)
	cfg := Config{FaultsPerInstr: 25, Seed: 3}

	low, err := Apply(m, bind, cfg, 0.05, MethodDP)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Apply(m, bind, cfg, 0.8, MethodDP)
	if err != nil {
		t.Fatal(err)
	}
	if len(high.Selection.Chosen) <= len(low.Selection.Chosen) {
		t.Errorf("selection sizes: low %d, high %d", len(low.Selection.Chosen), len(high.Selection.Chosen))
	}

	rLow, err := EvaluateCoverage(low.Module, bind, cfg, 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	rHigh, err := EvaluateCoverage(high.Module, bind, cfg, 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	covLow, _ := rLow.SDCCoverage()
	covHigh, okHigh := rHigh.SDCCoverage()
	if !okHigh {
		t.Fatal("high-protection coverage undefined")
	}
	if covHigh <= covLow {
		t.Errorf("coverage did not increase with protection: %.3f -> %.3f", covLow, covHigh)
	}
	if covHigh < 0.5 {
		t.Errorf("high-protection coverage %.3f unexpectedly low", covHigh)
	}
}

func TestDuplicatedDynFraction(t *testing.T) {
	m, bind := buildKernel(t)
	prof := interp.NewProfile(m)
	r := interp.NewRunner(m, interp.Config{})
	r.Run(bind, nil, prof)

	if got := DuplicatedDynFraction(m, prof, nil); got != 0 {
		t.Errorf("empty selection fraction = %f", got)
	}
	all := m.InjectableIDs(true)
	frac := DuplicatedDynFraction(m, prof, all)
	if frac <= 0 || frac > 1 {
		t.Errorf("full selection fraction = %f", frac)
	}

	// Fraction with a subset must not exceed the full-set fraction.
	half := all[:len(all)/2]
	if h := DuplicatedDynFraction(m, prof, half); h > frac {
		t.Errorf("subset fraction %f > full %f", h, frac)
	}
}

func TestKnapsackDPExactSmall(t *testing.T) {
	// Classic instance: capacity 0.5; DP must pick {b,c} (benefit 0.9)
	// over the greedy trap {a} (density-first picks a=0.6/0.3 then c fits).
	items := []knapItem{
		{id: 0, cost: 0.30, benefit: 0.60},
		{id: 1, cost: 0.25, benefit: 0.45},
		{id: 2, cost: 0.25, benefit: 0.45},
	}
	chosen := knapsackDP(items, 0.5)
	sum := 0.0
	for _, id := range chosen {
		sum += items[id].benefit
	}
	if math.Abs(sum-0.9) > 1e-9 {
		t.Errorf("DP benefit = %f, want 0.9 (chose %v)", sum, chosen)
	}
}

func TestDuplicableExclusions(t *testing.T) {
	m := ir.NewModule("d")
	f := m.AddFunction("main", nil, ir.Void)
	aux := m.AddFunction("aux", nil, ir.I64)
	b := ir.NewBuilder(m, f)
	al := b.Alloca(ir.ConstI(1))
	call := b.Call(aux.Index, ir.I64)
	add := b.Bin(ir.OpAdd, call, ir.ConstI(1))
	sq := b.CallB(ir.BuiltinSqrt, ir.ConstF(4))
	b.Store(add, al)
	b.CallB(ir.BuiltinEmitF, sq)
	b.RetVoid()
	ab := ir.NewBuilder(m, aux)
	ab.Ret(ir.ConstI(5))
	m.Finalize()

	byOp := map[ir.Op]bool{}
	for _, in := range m.Instrs {
		if in.Op == ir.OpCallB && !in.HasResult() {
			continue // void emit builtin; not injectable by construction
		}
		byOp[in.Op] = Duplicable(m, in)
	}
	if byOp[ir.OpAlloca] {
		t.Error("alloca must not be duplicable")
	}
	if byOp[ir.OpCall] {
		t.Error("call must not be duplicable")
	}
	if !byOp[ir.OpAdd] {
		t.Error("add must be duplicable")
	}
	if !byOp[ir.OpCallB] {
		t.Error("pure builtin must be duplicable")
	}
	if byOp[ir.OpStore] || byOp[ir.OpRet] {
		t.Error("valueless instructions must not be duplicable")
	}
}

func TestFullDuplication(t *testing.T) {
	m, bind := buildKernel(t)
	full := FullDuplication(m)
	if err := ir.Verify(full); err != nil {
		t.Fatalf("full-dup module invalid: %v", err)
	}
	// Semantics preserved.
	a := interp.NewRunner(m, interp.Config{}).Run(bind, nil, nil)
	b := interp.NewRunner(full, interp.Config{}).Run(bind, nil, nil)
	if a.Status != b.Status || len(a.Output) != len(b.Output) {
		t.Fatalf("full duplication changed behavior: %v vs %v", a.Status, b.Status)
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("output[%d] differs", i)
		}
	}
	// Execution roughly doubles or more (dup+cmp+detect per instruction).
	if b.DynInstrs < a.DynInstrs*3/2 {
		t.Errorf("full duplication too cheap: %d -> %d", a.DynInstrs, b.DynInstrs)
	}

	// Coverage should be very high: nearly all SDCs detected.
	cfg := Config{FaultsPerInstr: 10, Seed: 1}
	res, err := EvaluateCoverage(full, bind, cfg, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	cov, ok := res.SDCCoverage()
	if !ok {
		t.Skip("no corruptions observed")
	}
	if cov < 0.9 {
		t.Errorf("full-duplication coverage = %.3f, want >= 0.9", cov)
	}
}

func TestHeuristicSDCProbRanges(t *testing.T) {
	m, _ := buildKernel(t)
	probs := HeuristicSDCProb(m)
	if len(probs) != m.NumInstrs() {
		t.Fatalf("probs len %d != instrs %d", len(probs), m.NumInstrs())
	}
	any := false
	for id, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("instr %d heuristic prob %f", id, p)
		}
		if p > 0 {
			any = true
		}
		if !m.Instrs[id].HasResult() && p != 0 {
			t.Fatalf("valueless instr %d has prob %f", id, p)
		}
	}
	if !any {
		t.Fatal("all heuristic probabilities are zero")
	}
}

func TestHeuristicRanksOutputFlowsHigh(t *testing.T) {
	// A value that flows straight into emiti must outrank one only used
	// as a load address.
	m, err := minicc.Compile("h.mc", `
var data[] int;
func main(x int) {
	var idx int = x % len(data);   // address-only use
	var val int = data[idx] * 3;   // flows into output
	emiti(val);
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Optimize(m); err != nil {
		t.Fatal(err)
	}
	probs := HeuristicSDCProb(m)
	var mulP, remP float64
	for _, in := range m.Instrs {
		switch in.Op {
		case ir.OpMul:
			mulP = probs[in.ID]
		case ir.OpRem:
			remP = probs[in.ID]
		}
	}
	if mulP <= remP {
		t.Fatalf("output-flowing mul (%.3f) not ranked above address-only rem (%.3f)", mulP, remP)
	}
}

func TestHeuristicMeasureSelectsAndProtects(t *testing.T) {
	m, bind := buildKernel(t)
	meas, err := HeuristicMeasure(m, bind, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sel := Select(m, meas, 0.5, MethodDP)
	if len(sel.Chosen) == 0 {
		t.Fatal("heuristic selection empty")
	}
	prot := Duplicate(m, sel.Chosen)
	res, err := EvaluateCoverage(prot, bind, Config{}, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	cov, ok := res.SDCCoverage()
	if !ok {
		t.Skip("no corruptions observed")
	}
	// Heuristic-guided protection must beat no protection decisively.
	if cov < 0.2 {
		t.Errorf("heuristic selection coverage %.3f suspiciously low", cov)
	}
	t.Logf("heuristic-guided coverage at 50%% level: %.3f", cov)
}

// rotateSrc rotates three variables through a loop; optimization turns
// them into a loop-header group of three phis that read each other.
const rotateSrc = `
func main(n int) {
	var a int = 1;
	var b int = 2;
	var c int = 3;
	for (var i int = 0; i < n; i = i + 1) {
		var t int = a;
		a = b;
		b = c;
		c = t;
	}
	emiti(a);
	emiti(b);
	emiti(c);
}
`

// TestProtectionKeepsPhiGroups protects the rotation loop in every way a
// selection can (full duplication, duplication of one phi, every
// detector at every applicable site) and checks that each protected
// module keeps the three-phi group leading its block and prints the
// original output on both engines. Protection code placed between two
// phis of the group would give the later phis sequential semantics and
// change the output.
func TestProtectionKeepsPhiGroups(t *testing.T) {
	m, err := minicc.Compile("rotate.mc", rotateSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Optimize(m); err != nil {
		t.Fatal(err)
	}
	var group []*ir.Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if n := leadingPhis(b); n >= 3 {
				group = b.Instrs[:n]
			}
		}
	}
	if group == nil {
		t.Fatalf("no three-phi group in\n%s", m)
	}
	crossReads := 0
	for _, ph := range group {
		if slices.ContainsFunc(group, func(o *ir.Instr) bool { return o != ph && readsReg(ph, o.Dst) }) {
			crossReads++
			if Duplicable(m, ph) {
				t.Errorf("phi %s reads its group but is duplicable", ph)
			}
		}
	}
	if crossReads < 3 {
		t.Fatalf("%d phis read their group, want the 3 rotating ones", crossReads)
	}
	fa := analysis.FactsFor(m)
	prots := map[string]*ir.Module{
		"full-dup":  FullDuplication(m),
		"first-phi": Duplicate(m, []int{group[0].ID}),
	}
	for _, d := range Detectors() {
		var sel Selection
		for _, in := range m.Instrs {
			if d.Applicable(fa, in.ID) {
				sel.Chosen = append(sel.Chosen, in.ID)
				sel.Detectors = append(sel.Detectors, d.Name())
			}
		}
		prots[d.Name()] = LowerSelection(m, sel)
	}
	bind := interp.Binding{Args: []uint64{4}}
	want := []uint64{2, 3, 1}
	for name, prot := range prots {
		ids := InstrMap(m, prot)
		for i, ph := range group {
			if pos := prot.Loc(ids[ph.ID]).Pos; pos != i {
				t.Errorf("%s: phi %d of the group moved to position %d:\n%s", name, i, pos, prot)
			}
		}
		for _, eng := range []interp.Engine{interp.EngineLegacy, interp.EngineCompiled} {
			res := interp.NewRunner(prot, interp.Config{Engine: eng}).Run(bind, nil, nil)
			if res.Status != interp.StatusOK || !slices.Equal(res.Output, want) {
				t.Errorf("%s on %s: %v %v, want OK %v", name, eng, res.Status, res.Output, want)
			}
		}
	}
}

// TestDuplicatePlacesPhiChecksAfterGroup duplicates a loop whose header
// phis do not read each other: every phi is protected, the group stays
// leading, and a fault in each phi is detected.
func TestDuplicatePlacesPhiChecksAfterGroup(t *testing.T) {
	m, bind, _ := measureKernel(t)
	prot := FullDuplication(m)
	ids := InstrMap(m, prot)
	golden, err := fault.RunGolden(prot, bind, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := interp.NewRunner(prot, interp.Config{MaxDynInstrs: golden.DynInstrs * 20})
	groups := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n := leadingPhis(b)
			if n < 2 {
				continue
			}
			groups++
			for i, ph := range b.Instrs[:n] {
				id := ids[ph.ID]
				if pos := prot.Loc(id).Pos; pos != i {
					t.Fatalf("phi %d of a group of %d moved to position %d", i, n, pos)
				}
				if !Duplicable(m, ph) || golden.Profile.InstrCount[id] == 0 {
					continue
				}
				f := interp.Fault{InstrID: id, Bit: ph.Type.Bits() - 2}
				if res := r.Run(bind, &f, nil); res.Status != interp.StatusDetected {
					t.Errorf("fault in phi %s: %v, want detected", ph, res.Status)
				}
			}
		}
	}
	if groups == 0 {
		t.Fatal("kernel has no phi group")
	}
}
