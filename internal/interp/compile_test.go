package interp

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

// chainModule is a straight line of value ops on an argument register:
// the compiler must fuse the whole chain into one xRun superinstruction.
func chainModule() *ir.Module {
	m := ir.NewModule("chain")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	x := ir.Reg(0, ir.I64)
	v := b.Bin(ir.OpAdd, x, ir.ConstI(3))
	v = b.Bin(ir.OpMul, v, ir.ConstI(5))
	v = b.Bin(ir.OpXor, v, ir.ConstI(0xff))
	v = b.Bin(ir.OpSub, v, x)
	b.CallB(ir.BuiltinEmitI, v)
	b.RetVoid()
	m.Finalize()
	return m
}

// loopModule sums 0..n-1 through global memory cells (cell 0 = i,
// cell 1 = acc), so the loop back-edge is an icmp immediately feeding a
// condbr — the cmp+br fusion target.
func loopModule(n int64) *ir.Module {
	m := ir.NewModule("loop")
	m.AddGlobal("cells", 2, nil)
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	g := b.GlobalAddr(0)
	b.Store(ir.ConstI(0), g)
	b.Store(ir.ConstI(0), b.GEP(g, ir.ConstI(1)))
	b.Br(loop)

	b.SetBlock(loop)
	g2 := b.GlobalAddr(0)
	acell := b.GEP(g2, ir.ConstI(1))
	i := b.Load(ir.I64, g2)
	a := b.Load(ir.I64, acell)
	b.Store(b.Bin(ir.OpAdd, a, i), acell)
	i2 := b.Bin(ir.OpAdd, i, ir.ConstI(1))
	b.Store(i2, g2)
	c := b.ICmp(ir.PredLT, i2, ir.ConstI(n))
	b.CondBr(c, loop, exit)

	b.SetBlock(exit)
	b.CallB(ir.BuiltinEmitI, b.Load(ir.I64, b.GEP(b.GlobalAddr(0), ir.ConstI(1))))
	b.RetVoid()
	m.Finalize()
	return m
}

// detectLoopModule is a duplication-protected loop: each iteration
// computes a value twice, compares the copies with icmp-eq, and feeds the
// comparison to a detect — the xCmpEqDetect fusion shape — then counts
// down through a fused cmp+br back-edge.
func detectLoopModule(n int64) *ir.Module {
	m := ir.NewModule("dup")
	m.AddGlobal("cells", 1, nil)
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	b.Store(ir.ConstI(0), b.GlobalAddr(0))
	b.Br(loop)

	b.SetBlock(loop)
	g := b.GlobalAddr(0)
	i := b.Load(ir.I64, g)
	v := b.Bin(ir.OpMul, i, ir.ConstI(3))
	v2 := b.Bin(ir.OpMul, i, ir.ConstI(3))
	b.Detect(b.ICmp(ir.PredEQ, v, v2))
	i2 := b.Bin(ir.OpAdd, i, ir.ConstI(1))
	b.Store(i2, g)
	b.CondBr(b.ICmp(ir.PredLT, i2, ir.ConstI(n)), loop, exit)

	b.SetBlock(exit)
	b.CallB(ir.BuiltinEmitI, b.Load(ir.I64, b.GlobalAddr(0)))
	b.RetVoid()
	m.Finalize()
	return m
}

// spawnDetectModule spawns `workers` threads, each running a
// duplication-protected computation into its own global cell; main joins
// and emits the sum. Fusion must be disabled (quantum slicing between the
// halves of a fused pair would be observable through the round-robin
// schedule), but all engines must still agree bit-for-bit.
func spawnDetectModule(workers int) *ir.Module {
	m := ir.NewModule("mtdup")
	m.AddGlobal("cells", workers, nil)
	mainF := m.AddFunction("main", nil, ir.Void)
	workF := m.AddFunction("work", []ir.Type{ir.I64}, ir.Void)

	wb := ir.NewBuilder(m, workF)
	tid := ir.Reg(0, ir.I64)
	v := wb.Bin(ir.OpMul, tid, ir.ConstI(7))
	v = wb.Bin(ir.OpAdd, v, ir.ConstI(1))
	v2 := wb.Bin(ir.OpMul, tid, ir.ConstI(7))
	v2 = wb.Bin(ir.OpAdd, v2, ir.ConstI(1))
	wb.Detect(wb.ICmp(ir.PredEQ, v, v2))
	wb.Store(v, wb.GEP(wb.GlobalAddr(0), tid))
	wb.RetVoid()

	mb := ir.NewBuilder(m, mainF)
	for i := 0; i < workers; i++ {
		mb.Spawn(workF.Index, ir.ConstI(int64(i)))
	}
	mb.Join()
	acc := ir.Operand(ir.ConstI(0))
	gb := mb.GlobalAddr(0)
	for i := 0; i < workers; i++ {
		acc = mb.Bin(ir.OpAdd, acc, mb.Load(ir.I64, mb.GEP(gb, ir.ConstI(int64(i)))))
	}
	mb.CallB(ir.BuiltinEmitI, acc)
	mb.RetVoid()
	m.Finalize()
	return m
}

func TestCompiledRunFusion(t *testing.T) {
	m := chainModule()
	c := Compile(Lower(m))
	st := c.Stats()
	if st.Runs < 1 || st.RunOps < 4 {
		t.Fatalf("straight-line chain not fused into a run: %+v", st)
	}
	res := runBothEngines(t, m, Config{}, []uint64{9})
	want := int64((9+3)*5^0xff) - 9
	if int64(res.Output[0]) != want {
		t.Fatalf("output = %d, want %d", int64(res.Output[0]), want)
	}
}

func TestCompiledCmpBrFusion(t *testing.T) {
	m := loopModule(25)
	c := Compile(Lower(m))
	st := c.Stats()
	if st.CmpBr < 1 {
		t.Fatalf("loop back-edge cmp+condbr not fused: %+v", st)
	}
	res := runBothEngines(t, m, Config{}, nil)
	if int64(res.Output[0]) != 25*24/2 {
		t.Fatalf("loop sum = %d, want %d", int64(res.Output[0]), 25*24/2)
	}
}

func TestCompiledSpawnDisablesFusion(t *testing.T) {
	m := spawnDetectModule(2)
	c := Compile(Lower(m))
	st := c.Stats()
	if st.Runs != 0 || st.CmpBr != 0 || st.CmpEqDetect != 0 || st.Folds != 0 {
		t.Fatalf("spawned module must not be fused (dispatch granularity is observable): %+v", st)
	}
	if st.Words != st.ImageWords {
		t.Fatalf("spawned module code must be verbatim image code: %d words vs %d", st.Words, st.ImageWords)
	}
	runBothEngines(t, m, Config{}, nil)
}

// TestCompiledKnownBitsFold pins the constant-specialization tier: values
// the known-bits analysis proves constant fold to xConst in the fault-free
// stream, while fault-armed runs take the exact stream so an upstream flip
// still propagates through every dependent op.
func TestCompiledKnownBitsFold(t *testing.T) {
	m := ir.NewModule("fold")
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	v := b.Bin(ir.OpAdd, ir.ConstI(2), ir.ConstI(3))
	w := b.Bin(ir.OpMul, v, ir.ConstI(7))
	b.CallB(ir.BuiltinEmitI, w)
	b.RetVoid()
	m.Finalize()

	c := Compile(Lower(m))
	if st := c.Stats(); st.Folds < 1 {
		t.Fatalf("provably-constant adds not folded: %+v", st)
	}
	res := runBothEngines(t, m, Config{}, nil)
	if int64(res.Output[0]) != 35 {
		t.Fatalf("folded output = %d, want 35", int64(res.Output[0]))
	}

	// Armed at the add (2+3), bit 4: result 5^16=21 must propagate through
	// the multiply on every engine — the fold would mask it, so the
	// compiled engine must select the exact stream when a fault is armed.
	var addID int
	for _, in := range m.Instrs {
		if in.Op == ir.OpAdd {
			addID = in.ID
		}
	}
	want := int64(21 * 7)
	for _, eng := range []Engine{EngineLegacy, EngineCompiled} {
		r := NewRunner(m, Config{Engine: eng})
		fres := r.Run(Binding{}, &Fault{InstrID: addID, DynIndex: 0, Bit: 4}, nil)
		if fres.Status != StatusOK || int64(fres.Output[0]) != want {
			t.Fatalf("%v: armed output = %d (%v), want %d", eng, int64(fres.Output[0]), fres.Status, want)
		}
	}
}

// TestFusedCmpEqDetectQuantumAccounting pins the two-step cycle
// accounting of the fused cmp-eq+detect pair (and of fused runs and
// cmp+br pairs) against the unfused legacy path: for every scheduling
// quantum and for every dynamic-instruction budget — including budgets
// that land exactly between the two halves of a fused pair — both
// engines must agree on status, accounting, and output.
func TestFusedCmpEqDetectQuantumAccounting(t *testing.T) {
	m := detectLoopModule(4)
	if st := Compile(Lower(m)).Stats(); st.CmpEqDetect < 1 {
		t.Fatalf("cmp-eq+detect pair not fused in single-threaded module: %+v", st)
	}
	base := runBothEngines(t, m, Config{}, nil)
	if base.Status != StatusOK {
		t.Fatalf("reference run: %v (%s)", base.Status, base.Trap)
	}
	for _, quantum := range []int{1, 2, 3, 64} {
		for budget := int64(1); budget <= base.DynInstrs+1; budget++ {
			res := runBothEngines(t, m, Config{Quantum: quantum, MaxDynInstrs: budget}, nil)
			wantStatus := StatusOK
			if budget < base.DynInstrs {
				wantStatus = StatusHang
			}
			if res.Status != wantStatus {
				t.Fatalf("q=%d budget=%d: status %v, want %v", quantum, budget, res.Status, wantStatus)
			}
		}
	}
}

// TestDetectAccountingThreadCounts runs duplication-protected workers
// across thread counts and scheduling quanta: the deterministic
// round-robin schedule must yield bit-identical results on every engine
// at every configuration (fusion is disabled under spawn, and this pins
// that the disable is airtight).
func TestDetectAccountingThreadCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		m := spawnDetectModule(workers)
		want := int64(0)
		for i := 0; i < workers; i++ {
			want += int64(i*7 + 1)
		}
		for _, quantum := range []int{1, 3, 64} {
			res := runBothEngines(t, m, Config{Quantum: quantum}, nil)
			if res.Status != StatusOK {
				t.Fatalf("workers=%d q=%d: %v (%s)", workers, quantum, res.Status, res.Trap)
			}
			if int64(res.Output[0]) != want {
				t.Fatalf("workers=%d q=%d: sum = %d, want %d", workers, quantum, int64(res.Output[0]), want)
			}
		}
	}
}

// TestSetObsConcurrentFlip exercises the process-global obs hook's
// concurrency contract (see obs.go): one goroutine flips SetObs between
// two registries and detached while workers run fault-armed campaigns on
// both engines. Run under -race this catches torn publication; the
// assertions catch any run whose *result* is perturbed by the flip, and
// the settling phase proves each run lands in exactly one registry.
func TestSetObsConcurrentFlip(t *testing.T) {
	defer SetObs(nil)
	m := loopModule(32)
	var addID int
	for _, in := range m.Instrs {
		if in.Op == ir.OpAdd {
			addID = in.ID // last add: the i+1 increment
		}
	}
	site := &Fault{InstrID: addID, DynIndex: 5, Bit: 1}
	golden := NewRunner(m, Config{Engine: EngineLegacy}).Run(Binding{}, &Fault{InstrID: site.InstrID, DynIndex: site.DynIndex, Bit: site.Bit}, nil)

	regs := [2]*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				SetObs(regs[0])
			case 1:
				SetObs(nil)
			default:
				SetObs(regs[1])
			}
		}
	}()

	engines := []Engine{EngineLegacy, EngineCompiled}
	const workers, runsPer = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runsPer; i++ {
				eng := engines[(w+i)%len(engines)]
				f := *site
				res := NewRunner(m, Config{Engine: eng}).Run(Binding{}, &f, nil)
				if res.Status != golden.Status || res.OutputHash != golden.OutputHash ||
					res.DynInstrs != golden.DynInstrs || res.Cycles != golden.Cycles {
					t.Errorf("%v: concurrent obs flip perturbed a run: %+v vs golden %+v", eng, res, golden)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flipper.Wait()

	// Every recorded run landed in exactly one registry (some ran detached).
	total := regs[0].Counter("interp.runs").Value() + regs[1].Counter("interp.runs").Value()
	if total > workers*runsPer {
		t.Fatalf("double-counted runs: %d recorded > %d executed", total, workers*runsPer)
	}

	// Settled: the compiled tier must consult the same hook, one increment
	// per run, on both the total and the per-engine counter.
	settled := obs.NewRegistry()
	SetObs(settled)
	for i := 0; i < 3; i++ {
		f := *site
		NewRunner(m, Config{Engine: EngineCompiled}).Run(Binding{}, &f, nil)
	}
	if n := settled.Counter("interp.runs").Value(); n != 3 {
		t.Fatalf("settled registry saw %d runs, want 3", n)
	}
	if n := settled.Counter("interp.runs.compiled").Value(); n != 3 {
		t.Fatalf("settled registry saw %d compiled runs, want 3", n)
	}
}
