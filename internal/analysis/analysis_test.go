package analysis

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/ir"
)

// diamond builds: entry -> (then|else) -> merge, with a phi in merge
// feeding emiti. Returns the module.
//
//	entry: c = icmp lt p0, 10; condbr c, then, else
//	then:  a = add p0, 1; br merge
//	else:  b = mul p0, 2; br merge
//	merge: x = phi [a then] [b else]; emiti x; ret
func diamond(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("diamond")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)

	then := b.NewBlock("then")
	els := b.NewBlock("else")
	merge := b.NewBlock("merge")

	c := b.ICmp(ir.PredLT, p0, ir.ConstI(10))
	b.CondBr(c, then, els)

	b.SetBlock(then)
	a := b.Bin(ir.OpAdd, p0, ir.ConstI(1))
	b.Br(merge)

	b.SetBlock(els)
	v := b.Bin(ir.OpMul, p0, ir.ConstI(2))
	b.Br(merge)

	b.SetBlock(merge)
	x := b.Phi(ir.I64, []ir.Operand{a, v}, []*ir.Block{then, els})
	b.CallB(ir.BuiltinEmitI, x)
	b.RetVoid()

	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCFGDiamond(t *testing.T) {
	m := diamond(t)
	c := BuildCFG(m.Funcs[0])
	if got := len(c.RPO); got != 4 {
		t.Fatalf("RPO covers %d blocks, want 4", got)
	}
	if c.RPO[0] != 0 {
		t.Fatalf("RPO starts at bb%d, want entry", c.RPO[0])
	}
	// Successors: entry -> {then, else}; then/else -> {merge}.
	if len(c.Succs[0]) != 2 || len(c.Preds[3]) != 2 {
		t.Fatalf("diamond edges wrong: succs(entry)=%v preds(merge)=%v", c.Succs[0], c.Preds[3])
	}
	for b := 0; b < 4; b++ {
		if !c.Reachable(b) {
			t.Errorf("bb%d unreachable", b)
		}
	}
}

func TestDomDiamond(t *testing.T) {
	m := diamond(t)
	d := BuildDom(BuildCFG(m.Funcs[0]))
	// Entry dominates everything; then/else dominate only themselves;
	// merge's idom is entry.
	if d.Idom[3] != 0 {
		t.Fatalf("idom(merge) = bb%d, want entry", d.Idom[3])
	}
	if !d.Dominates(0, 3) || !d.Dominates(0, 1) || !d.Dominates(0, 0) {
		t.Fatal("entry must dominate all blocks")
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Fatal("branch arms must not dominate the merge")
	}
	if d.StrictlyDominates(0, 0) {
		t.Fatal("strict dominance is irreflexive")
	}
	// Dominance frontier of each arm is the merge.
	for _, arm := range []int{1, 2} {
		if len(d.Frontier[arm]) != 1 || d.Frontier[arm][0] != 3 {
			t.Fatalf("frontier(bb%d) = %v, want [3]", arm, d.Frontier[arm])
		}
	}
}

func TestDomUnreachableBlock(t *testing.T) {
	m := ir.NewModule("unreach")
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	exit := b.NewBlock("exit")
	dead := b.NewBlock("dead")
	b.Br(exit)
	b.SetBlock(dead)
	b.Br(exit)
	b.SetBlock(exit)
	b.RetVoid()
	m.Finalize()

	c := BuildCFG(f)
	if c.Reachable(2) {
		t.Fatal("dead block reported reachable")
	}
	d := BuildDom(c)
	if d.Idom[2] != -1 {
		t.Fatalf("idom(dead) = %d, want -1", d.Idom[2])
	}
	if d.Dominates(2, 1) || d.Dominates(0, 2) {
		t.Fatal("dominance must not involve unreachable blocks")
	}
}

func TestLivenessAcrossBlocks(t *testing.T) {
	m := diamond(t)
	f := m.Funcs[0]
	l := BuildLiveness(BuildCFG(f))

	// p0 (register 0) is used in then and else: live into both arms.
	if !l.LiveAt(0, 1) || !l.LiveAt(0, 2) {
		t.Fatal("parameter must be live into both branch arms")
	}
	// The phi result is defined in merge: not live into merge.
	var phiDst int
	for _, in := range f.Blocks[3].Instrs {
		if in.Op == ir.OpPhi {
			phiDst = in.Dst
		}
	}
	if l.LiveAt(phiDst, 3) {
		t.Fatal("phi result must not be live into its defining block")
	}
	// Phi arguments are live OUT of their incoming predecessors.
	var aReg int
	for _, in := range f.Blocks[1].Instrs {
		if in.Op == ir.OpAdd {
			aReg = in.Dst
		}
	}
	if !l.LiveOut[1].Has(aReg) {
		t.Fatal("phi argument must be live out of its incoming block")
	}
	if l.LiveOut[2].Has(aReg) {
		t.Fatal("phi argument must not leak into the other incoming block")
	}
}

func TestDefUse(t *testing.T) {
	m := diamond(t)
	f := m.Funcs[0]
	du := BuildDefUse(f)
	if !du.SingleAssignment {
		t.Fatal("builder output must be single-assignment")
	}
	if !du.IsParam(0) || du.IsParam(1) {
		t.Fatal("IsParam misclassifies")
	}
	var add *ir.Instr
	for _, in := range f.Blocks[1].Instrs {
		if in.Op == ir.OpAdd {
			add = in
		}
	}
	if du.Def[add.Dst] != add {
		t.Fatal("Def does not map the add's register to the add")
	}
	if len(du.Uses[add.Dst]) != 1 || du.Uses[add.Dst][0].Op != ir.OpPhi {
		t.Fatalf("add result should have exactly the phi as use, got %v", du.Uses[add.Dst])
	}
}

func TestKnownBitsConstantMask(t *testing.T) {
	// x = p0 & 0xF0: bits outside 0xF0 are known zero.
	m := ir.NewModule("kb")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	x := b.Bin(ir.OpAnd, ir.Reg(0, ir.I64), ir.ConstI(0xF0))
	y := b.Bin(ir.OpOr, x, ir.ConstI(0x7))
	b.CallB(ir.BuiltinEmitI, y)
	b.RetVoid()
	m.Finalize()

	kb := BuildKnownBits(f, BuildCFG(f))
	if kb.Zero[x.Reg]&^0xF0 != ^uint64(0xF0) {
		t.Fatalf("and-mask known zeros wrong: %#x", kb.Zero[x.Reg])
	}
	if kb.One[y.Reg]&0x7 != 0x7 {
		t.Fatalf("or-mask known ones wrong: %#x", kb.One[y.Reg])
	}
}

func TestDemandConstAndMasksHighBits(t *testing.T) {
	// v = add p0, p0; w = v & 0xFF; emiti w. Only the low byte of v is
	// demanded; bits 8..63 are provably masked.
	m := ir.NewModule("mask")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	v := b.Bin(ir.OpAdd, ir.Reg(0, ir.I64), ir.Reg(0, ir.I64))
	w := b.Bin(ir.OpAnd, v, ir.ConstI(0xFF))
	b.CallB(ir.BuiltinEmitI, w)
	b.RetVoid()
	m.Finalize()

	tri := NewTriage(m)
	var vIn *ir.Instr
	for _, in := range m.Instrs {
		if in.Op == ir.OpAdd {
			vIn = in
		}
	}
	if got := tri.DemandedBits(vIn.ID); got != 0xFF {
		t.Fatalf("demand(add) = %#x, want 0xFF", got)
	}
	verdict, proof := tri.Site(vIn.ID, 40)
	if verdict != VerdictProvablyMasked || proof != ProofMaskedBits {
		t.Fatalf("high bit of masked add: verdict %v proof %v", verdict, proof)
	}
	if v, _ := tri.Site(vIn.ID, 3); v != VerdictUnknown {
		t.Fatal("low bit of masked add must stay unknown")
	}
	_ = v
	_ = w
}

func TestDemandDeadPhiCycle(t *testing.T) {
	// A loop-carried phi cycle (p -> q -> p) never observed: classic DCE
	// cannot remove it (each member has a use), but no bit is demanded.
	m := ir.NewModule("deadphi")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	entry := b.Block()
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)

	b.SetBlock(body)
	// Filled after the phis exist.

	b.SetBlock(head)
	i := b.Phi(ir.I64, []ir.Operand{ir.ConstI(0), ir.Operand{}}, []*ir.Block{entry, body})
	p := b.Phi(ir.I64, []ir.Operand{ir.ConstI(7), ir.Operand{}}, []*ir.Block{entry, body})
	c := b.ICmp(ir.PredLT, i, ir.ConstI(4))
	b.CondBr(c, body, exit)

	b.SetBlock(body)
	i2 := b.Bin(ir.OpAdd, i, ir.ConstI(1))
	q := b.Bin(ir.OpMul, p, ir.ConstI(3))
	b.Br(head)

	// Patch the loop-carried phi inputs.
	var phis []*ir.Instr
	for _, in := range head.Instrs {
		if in.Op == ir.OpPhi {
			phis = append(phis, in)
		}
	}
	phis[0].Args[1] = i2
	phis[1].Args[1] = q

	b.SetBlock(exit)
	b.CallB(ir.BuiltinEmitI, i)
	b.RetVoid()
	m.Finalize()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if err := VerifySSA(m); err != nil {
		t.Fatal(err)
	}

	tri := NewTriage(m)
	// The dead cycle: phi p and mul q are fully masked dead values.
	pID, qID := phis[1].ID, -1
	for _, in := range m.Instrs {
		if in.Op == ir.OpMul {
			qID = in.ID
		}
	}
	for _, id := range []int{pID, qID} {
		if v, proof := tri.Site(id, 0); v != VerdictProvablyMasked || proof != ProofDeadValue {
			t.Fatalf("dead cycle member %d: verdict %v proof %v", id, v, proof)
		}
	}
	// The live counter i is demanded (it controls the loop and is emitted).
	if tri.DemandedBits(phis[0].ID) == 0 {
		t.Fatal("live loop counter must be demanded")
	}
}

func TestDemandTrapSensitivity(t *testing.T) {
	// r = div p0, p1 with the quotient unused: both operands must stay
	// fully demanded (flips can introduce or remove a divide trap).
	m := ir.NewModule("trap")
	f := m.AddFunction("main", []ir.Type{ir.I64, ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	b.Bin(ir.OpDiv, ir.Reg(0, ir.I64), ir.Reg(1, ir.I64))
	b.CallB(ir.BuiltinEmitI, ir.ConstI(1))
	b.RetVoid()
	m.Finalize()

	d := BuildDemand(m, nil)
	if d.Regs[0][0] != ^uint64(0) || d.Regs[0][1] != ^uint64(0) {
		t.Fatalf("div operands demand = %#x, %#x; want full", d.Regs[0][0], d.Regs[0][1])
	}
	// The unused quotient itself is a dead value.
	tri := NewTriage(m)
	var div *ir.Instr
	for _, in := range m.Instrs {
		if in.Op == ir.OpDiv {
			div = in
		}
	}
	if v, proof := tri.Site(div.ID, 13); v != VerdictProvablyMasked || proof != ProofDeadValue {
		t.Fatalf("unused quotient: verdict %v proof %v", v, proof)
	}
	_ = f
}

func TestDeadStoreDetection(t *testing.T) {
	// An alloca that is stored to but never loaded: the store is dead and
	// the stored value provably masked with the dead-store tag.
	m := ir.NewModule("ds")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	slot := b.Alloca(ir.ConstI(1))
	v := b.Bin(ir.OpAdd, ir.Reg(0, ir.I64), ir.ConstI(5))
	b.Store(v, slot)
	b.CallB(ir.BuiltinEmitI, ir.ConstI(0))
	b.RetVoid()
	m.Finalize()

	ds := BuildDeadStores(m)
	var store, add *ir.Instr
	for _, in := range m.Instrs {
		switch in.Op {
		case ir.OpStore:
			store = in
		case ir.OpAdd:
			add = in
		}
	}
	if !ds.Dead[store.ID] {
		t.Fatal("store to never-loaded alloca must be dead")
	}
	tri := NewTriage(m)
	if v, proof := tri.Site(add.ID, 0); v != VerdictProvablyMasked || proof != ProofDeadStore {
		t.Fatalf("value feeding dead store: verdict %v proof %v", v, proof)
	}
	_ = f
}

func TestDeadStoreEscapeBlocksProof(t *testing.T) {
	// Same shape, but the slot address is passed to a callee: no longer
	// provably dead.
	m := ir.NewModule("esc")
	sink := m.AddFunction("sink", []ir.Type{ir.Ptr}, ir.Void)
	{
		sb := ir.NewBuilder(m, sink)
		sb.RetVoid()
	}
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	slot := b.Alloca(ir.ConstI(1))
	v := b.Bin(ir.OpAdd, ir.Reg(0, ir.I64), ir.ConstI(5))
	b.Store(v, slot)
	b.Call(0, ir.Void, slot)
	b.CallB(ir.BuiltinEmitI, ir.ConstI(0))
	b.RetVoid()
	m.Finalize()

	ds := BuildDeadStores(m)
	for _, in := range m.Instrs {
		if in.Op == ir.OpStore && ds.Dead[in.ID] {
			t.Fatal("store to escaping alloca must not be dead")
		}
	}
	_ = v
}

func TestFabsSignBitMasked(t *testing.T) {
	// y = fabs(x); emitf y: x's sign bit is provably masked.
	m := ir.NewModule("fabs")
	f := m.AddFunction("main", []ir.Type{ir.F64}, ir.Void)
	b := ir.NewBuilder(m, f)
	x := b.Bin(ir.OpFAdd, ir.Reg(0, ir.F64), ir.ConstF(1.5))
	y := b.CallB(ir.BuiltinFabs, x)
	b.CallB(ir.BuiltinEmitF, y)
	b.RetVoid()
	m.Finalize()

	tri := NewTriage(m)
	var fadd *ir.Instr
	for _, in := range m.Instrs {
		if in.Op == ir.OpFAdd {
			fadd = in
		}
	}
	if v, proof := tri.Site(fadd.ID, 63); v != VerdictProvablyMasked || proof != ProofMaskedBits {
		t.Fatalf("sign bit under fabs: verdict %v proof %v", v, proof)
	}
	if v, _ := tri.Site(fadd.ID, 62); v != VerdictUnknown {
		t.Fatal("exponent bits must stay unknown")
	}
	_ = f
}

func TestTriageMaskedMatchesInjectorNarrowing(t *testing.T) {
	m := diamond(t)
	tri := NewTriage(m)
	var cmp *ir.Instr
	for _, in := range m.Instrs {
		if in.Op == ir.OpICmp {
			cmp = in
		}
	}
	// The comparison feeds a branch: bit 0 demanded, never masked. The
	// injector reduces bit 40 to 40 % 1 == 0 for an i1 value.
	if tri.Masked(cmp.ID, 40, 0) {
		t.Fatal("i1 bit reduction must map high bits onto the demanded bit")
	}
	// A multi-bit mask on an i1 narrows to &1 like the interpreter: 0xFFFE
	// narrows to zero (no bit flips at all), which is trivially benign.
	if !tri.Masked(cmp.ID, 0, 0xFFFE) {
		t.Fatal("mask narrowing to zero flips nothing and must be provably benign")
	}
	// Mask 1 actually flips the demanded branch bit: not provable.
	if tri.Masked(cmp.ID, 0, 1) {
		t.Fatal("flipping the branch condition bit must stay unknown")
	}
}

func TestTriageConsistency(t *testing.T) {
	m := diamond(t)
	tri := NewTriage(m)
	for _, in := range m.Instrs {
		if !in.IsInjectable() {
			continue
		}
		w := widthMask(in.Type)
		d, mk := tri.DemandedBits(in.ID), tri.MaskedBits(in.ID)
		if d&mk != 0 || d|mk != w {
			t.Fatalf("[%d] %s: demand %#x and masked %#x must partition width %#x", in.ID, in.Op, d, mk, w)
		}
	}
}

func TestTriageForMemoizes(t *testing.T) {
	m := diamond(t)
	if TriageFor(m) != TriageFor(m) {
		t.Fatal("TriageFor must memoize per module snapshot")
	}
}

func TestVerifySSACatchesUseBeforeDef(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	r := b.NewReg()
	// Use register r before anything defines it.
	b.CallB(ir.BuiltinEmitI, ir.Reg(r, ir.I64))
	b.RetVoid()
	m.Finalize()

	err := VerifySSA(m)
	if err == nil || !strings.Contains(err.Error(), "undefined register") {
		t.Fatalf("VerifySSA = %v, want undefined-register error", err)
	}
	// And through the ir hook.
	if err := ir.VerifyStrict(m); err == nil {
		t.Fatal("VerifyStrict must reject via the registered checker")
	}
}

func TestVerifySSACatchesNonDominatingDef(t *testing.T) {
	// Define a value only in one branch arm, use it in the merge without
	// a phi: the definition does not dominate the use.
	m := ir.NewModule("nodom")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	p0 := ir.Reg(0, ir.I64)
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	merge := b.NewBlock("merge")
	c := b.ICmp(ir.PredLT, p0, ir.ConstI(3))
	b.CondBr(c, then, els)
	b.SetBlock(then)
	a := b.Bin(ir.OpAdd, p0, ir.ConstI(1))
	b.Br(merge)
	b.SetBlock(els)
	b.Br(merge)
	b.SetBlock(merge)
	b.CallB(ir.BuiltinEmitI, a) // invalid: a defined only in `then`
	b.RetVoid()
	m.Finalize()

	err := VerifySSA(m)
	if err == nil || !strings.Contains(err.Error(), "not dominated") {
		t.Fatalf("VerifySSA = %v, want dominance violation", err)
	}
}

// TestVerifySSARejectsRepeatedPhiEdge parses a loop whose latch ends in
// `condbr -> bb1 bb1`: one edge for the header's phi, which must list
// the latch once. Listing it twice passes every dominance check, so
// only the incoming-block rule catches it.
func TestVerifySSARejectsRepeatedPhiEdge(t *testing.T) {
	const src = `module dupphi
func @main(%r0:i64) void {
bb0:
  br -> bb1
bb1:
  %r1:i64 = phi INCOMING
  %r3:i1 = icmp lt %r1:i64, %r0:i64
  condbr %r3:i1 -> bb2 bb3
bb2:
  %r2:i64 = add %r1:i64, 1:i64
  %r4:i1 = icmp gt %r2:i64, 10:i64
  condbr %r4:i1 -> bb1 bb1
bb3:
  callb @emiti %r1:i64
  ret
}
`
	parse := func(incoming string) *ir.Module {
		m, err := ir.ParseModule(strings.Replace(src, "INCOMING", incoming, 1))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := ir.VerifyStrict(parse("0:i64, %r2:i64 -> bb0 bb2")); err != nil {
		t.Fatalf("latch listed once: VerifyStrict = %v, want nil", err)
	}
	m := parse("0:i64, %r2:i64, %r2:i64 -> bb0 bb2 bb2")
	if err := ir.Verify(m); err != nil {
		t.Fatalf("latch listed twice: Verify = %v, want nil (only the strict rule rejects it)", err)
	}
	for name, verify := range map[string]func(*ir.Module) error{"VerifySSA": VerifySSA, "ir.VerifyStrict": ir.VerifyStrict} {
		if err := verify(m); err == nil || !strings.Contains(err.Error(), "incoming blocks [0 2 2]") {
			t.Errorf("latch listed twice: %s = %v, want incoming-block violation", name, err)
		}
	}
}

func TestUpToAndWidthMask(t *testing.T) {
	cases := map[uint64]uint64{
		0:         0,
		1:         1,
		0x80:      0xFF,
		1 << 63:   ^uint64(0),
		0xF0:      0xFF,
		0x1000001: 0x1FFFFFF,
	}
	for in, want := range cases {
		if got := upTo(in); got != want {
			t.Errorf("upTo(%#x) = %#x, want %#x", in, got, want)
		}
	}
	if widthMask(ir.I1) != 1 || widthMask(ir.Void) != 0 || widthMask(ir.I64) != ^uint64(0) {
		t.Fatal("widthMask wrong")
	}
	if bits.OnesCount64(widthMask(ir.F64)) != 64 {
		t.Fatal("f64 width must be 64 bits")
	}
}

func TestBitSet(t *testing.T) {
	s := NewBitSet(130)
	s.Set(0)
	s.Set(129)
	if !s.Has(0) || !s.Has(129) || s.Has(64) {
		t.Fatal("BitSet set/has wrong")
	}
	o := NewBitSet(130)
	o.Set(64)
	if !s.UnionWith(o) || !s.Has(64) {
		t.Fatal("UnionWith must add and report change")
	}
	if s.UnionWith(o) {
		t.Fatal("UnionWith must report no change on the second merge")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	s.Clear(64)
	if s.Has(64) {
		t.Fatal("Clear failed")
	}
}
