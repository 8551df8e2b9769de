package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ir"
)

// runBothEngines executes m under the legacy stepper and the compiled
// engine with identical configuration and fails on any observable
// divergence in status, trap message, accounting, or output.
func runBothEngines(t *testing.T, m *ir.Module, cfg Config, args []uint64) Result {
	t.Helper()
	engines := []Engine{EngineLegacy, EngineCompiled}
	l := Result{}
	for i, eng := range engines {
		c := cfg
		c.Engine = eng
		r := NewRunner(m, c).Run(Binding{Args: args}, nil, nil)
		if i == 0 {
			l = r
			continue
		}
		if l.Status != r.Status || l.Trap != r.Trap {
			t.Fatalf("engines diverge: legacy %v %q, %v %v %q", l.Status, l.Trap, eng, r.Status, r.Trap)
		}
		if l.DynInstrs != r.DynInstrs || l.Cycles != r.Cycles {
			t.Fatalf("accounting diverges vs %v: legacy dyn=%d cyc=%d, got dyn=%d cyc=%d",
				eng, l.DynInstrs, l.Cycles, r.DynInstrs, r.Cycles)
		}
		if l.OutputHash != r.OutputHash || len(l.Output) != len(r.Output) {
			t.Fatalf("output diverges vs %v: %v vs %v", eng, l.Output, r.Output)
		}
	}
	return l
}

// TestTrapParityBothEngines pins the trap paths — null-page accesses, stack
// overflow, call depth, hang — to identical behavior under both engines,
// including the exact trap string and the instruction count at the trap.
func TestTrapParityBothEngines(t *testing.T) {
	cases := []struct {
		name     string
		build    func(b *ir.Builder)
		status   Status
		wantTrap string
	}{
		{"load-null", func(b *ir.Builder) {
			b.CallB(ir.BuiltinEmitI, b.Load(ir.I64, ir.Operand{Kind: ir.OperConst, Type: ir.Ptr, Imm: 0}))
		}, StatusCrash, "load out of bounds (addr 0)"},
		{"load-null-page", func(b *ir.Builder) {
			b.CallB(ir.BuiltinEmitI, b.Load(ir.I64, ir.Operand{Kind: ir.OperConst, Type: ir.Ptr, Imm: reservedLow - 1}))
		}, StatusCrash, ""},
		{"store-null", func(b *ir.Builder) {
			b.Store(ir.ConstI(1), ir.Operand{Kind: ir.OperConst, Type: ir.Ptr, Imm: 0})
		}, StatusCrash, "store out of bounds (addr 0)"},
		{"store-null-page", func(b *ir.Builder) {
			b.Store(ir.ConstI(1), ir.Operand{Kind: ir.OperConst, Type: ir.Ptr, Imm: reservedLow - 1})
		}, StatusCrash, ""},
		{"load-high-oob", func(b *ir.Builder) {
			b.CallB(ir.BuiltinEmitI, b.Load(ir.I64, ir.Operand{Kind: ir.OperConst, Type: ir.Ptr, Imm: 1 << 40}))
		}, StatusCrash, ""},
		{"stack-overflow", func(b *ir.Builder) {
			b.Alloca(ir.ConstI(1 << 40))
		}, StatusCrash, "stack overflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.NewModule(tc.name)
			f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
			b := ir.NewBuilder(m, f)
			tc.build(b)
			b.RetVoid()
			m.Finalize()
			res := runBothEngines(t, m, Config{}, []uint64{0})
			if res.Status != tc.status {
				t.Fatalf("status = %v (%s), want %v", res.Status, res.Trap, tc.status)
			}
			if tc.wantTrap != "" && res.Trap != tc.wantTrap {
				t.Fatalf("trap = %q, want %q", res.Trap, tc.wantTrap)
			}
			if res.Trap == "" {
				t.Fatal("crash with empty trap reason")
			}
		})
	}
}

func TestHangParityBothEngines(t *testing.T) {
	m := ir.NewModule("spin")
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	loop := b.NewBlock("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	m.Finalize()

	res := runBothEngines(t, m, Config{MaxDynInstrs: 1000}, nil)
	if res.Status != StatusHang {
		t.Fatalf("status = %v, want hang", res.Status)
	}
}

func TestCallDepthParityBothEngines(t *testing.T) {
	m := ir.NewModule("deep")
	mainF := m.AddFunction("main", nil, ir.Void)
	recF := m.AddFunction("rec", []ir.Type{ir.I64}, ir.Void)
	mb := ir.NewBuilder(m, mainF)
	mb.Call(recF.Index, ir.Void, ir.ConstI(0))
	mb.RetVoid()
	rb := ir.NewBuilder(m, recF)
	rb.Call(recF.Index, ir.Void, ir.Reg(0, ir.I64))
	rb.RetVoid()
	m.Finalize()

	res := runBothEngines(t, m, Config{}, nil)
	if res.Status != StatusCrash {
		t.Fatalf("status = %v, want crash (call depth)", res.Status)
	}
}

// TestRunTracedFormats exercises the tracer's per-line formatting: one line
// per executed instruction, integer and float result rendering, and no
// semantic drift (tracing forces the legacy engine internally).
func TestRunTracedFormats(t *testing.T) {
	m := ir.NewModule("traced")
	f := m.AddFunction("main", []ir.Type{ir.I64}, ir.Void)
	b := ir.NewBuilder(m, f)
	sum := b.Bin(ir.OpAdd, ir.Reg(0, ir.I64), ir.ConstI(5))
	fv := b.Bin(ir.OpFDiv, ir.ConstF(1), ir.ConstF(2))
	b.CallB(ir.BuiltinEmitI, sum)
	b.CallB(ir.BuiltinEmitF, fv)
	b.RetVoid()
	m.Finalize()

	ref := NewRunner(m, Config{}).Run(Binding{Args: []uint64{37}}, nil, nil)

	var buf bytes.Buffer
	res := NewRunner(m, Config{}).RunTraced(Binding{Args: []uint64{37}}, nil, &Tracer{W: &buf})
	if res.Status != StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Trap)
	}
	if res.DynInstrs != ref.DynInstrs || res.OutputHash != ref.OutputHash {
		t.Fatalf("tracing changed semantics: dyn %d vs %d", res.DynInstrs, ref.DynInstrs)
	}
	out := buf.String()
	if int64(strings.Count(out, "\n")) != res.DynInstrs {
		t.Fatalf("trace has %d lines, want %d:\n%s", strings.Count(out, "\n"), res.DynInstrs, out)
	}
	if !strings.Contains(out, "=> 42") {
		t.Errorf("integer result missing from trace:\n%s", out)
	}
	if !strings.Contains(out, "=> 0.5") {
		t.Errorf("float result missing from trace:\n%s", out)
	}
	if !strings.Contains(out, "main") {
		t.Errorf("function name missing from trace:\n%s", out)
	}
}

func TestTracerLimit(t *testing.T) {
	m := ir.NewModule("spin")
	f := m.AddFunction("main", nil, ir.Void)
	b := ir.NewBuilder(m, f)
	loop := b.NewBlock("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	m.Finalize()

	var buf bytes.Buffer
	res := NewRunner(m, Config{MaxDynInstrs: 500}).RunTraced(Binding{}, nil, &Tracer{W: &buf, Limit: 10})
	if res.Status != StatusHang {
		t.Fatalf("status = %v, want hang", res.Status)
	}
	out := buf.String()
	if got := strings.Count(out, "\n"); got != 11 { // 10 traced + 1 limit notice
		t.Fatalf("trace has %d lines, want 11:\n%s", got, out)
	}
	if !strings.Contains(out, "trace limit (10) reached") {
		t.Fatalf("limit notice missing:\n%s", out)
	}
}
