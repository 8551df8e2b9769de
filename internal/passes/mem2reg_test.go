package passes

import (
	"testing"
	"testing/quick"

	"repro/internal/interp"
	"repro/internal/ir"
)

// runBoth compiles src, runs it unoptimized and after Mem2Reg (+pipeline),
// and asserts identical outputs for the given argument sets.
func runBoth(t *testing.T, src string, argSets [][]uint64) {
	t.Helper()
	orig := compile(t, src)
	opt := orig.Clone()
	if err := RunPipeline(opt, SimplifyCFG{}, Mem2Reg{}, ConstFold{}, DCE{}, SimplifyCFG{}); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	r1 := interp.NewRunner(orig, interp.Config{MaxDynInstrs: 10_000_000})
	r2 := interp.NewRunner(opt, interp.Config{MaxDynInstrs: 10_000_000})
	for _, args := range argSets {
		a := r1.Run(interp.Binding{Args: args}, nil, nil)
		b := r2.Run(interp.Binding{Args: args}, nil, nil)
		if a.Status != b.Status {
			t.Fatalf("args %v: status %v vs %v (%s)", args, a.Status, b.Status, b.Trap)
		}
		if len(a.Output) != len(b.Output) {
			t.Fatalf("args %v: output lengths %d vs %d", args, len(a.Output), len(b.Output))
		}
		for i := range a.Output {
			if a.Output[i] != b.Output[i] {
				t.Fatalf("args %v output[%d]: %x vs %x", args, i, a.Output[i], b.Output[i])
			}
		}
		if b.DynInstrs >= a.DynInstrs {
			t.Errorf("args %v: mem2reg did not shrink execution (%d -> %d)", args, a.DynInstrs, b.DynInstrs)
		}
	}
}

func TestMem2RegStraightLine(t *testing.T) {
	runBoth(t, `
func main(x int) {
	var a int = x + 1;
	var b int = a * 2;
	a = b - 3;
	emiti(a + b);
}`, [][]uint64{{0}, {5}, {100}})
}

func TestMem2RegBranches(t *testing.T) {
	runBoth(t, `
func main(x int) {
	var v int = 0;
	if (x > 10) {
		v = x * 2;
	} else {
		if (x > 5) { v = x + 100; }
	}
	emiti(v);
}`, [][]uint64{{0}, {7}, {20}})
}

func TestMem2RegLoops(t *testing.T) {
	runBoth(t, `
func main(n int) {
	var s int = 0;
	var p int = 1;
	for (var i int = 1; i <= n; i = i + 1) {
		s = s + i;
		if (i % 3 == 0) { continue; }
		p = p * 2;
		if (p > 100000) { break; }
	}
	emiti(s);
	emiti(p);
}`, [][]uint64{{0}, {1}, {10}, {50}})
}

func TestMem2RegNestedLoopsAndFloats(t *testing.T) {
	runBoth(t, `
func main(n int) {
	var acc float = 0.0;
	for (var i int = 0; i < n; i = i + 1) {
		var row float = 0.0;
		for (var j int = 0; j < i; j = j + 1) {
			row = row + float(j) * 0.5;
		}
		acc = acc + row;
	}
	emitf(acc);
}`, [][]uint64{{0}, {3}, {12}})
}

func TestMem2RegSpilledParams(t *testing.T) {
	runBoth(t, `
func f(a int, b int) int {
	a = a + b;
	b = a - b;
	return a * b;
}
func main(x int) { emiti(f(x, 7)); }`, [][]uint64{{0}, {3}, {9}})
}

func TestMem2RegKeepsArraysInMemory(t *testing.T) {
	src := `
func main(n int) {
	var a[8] int;
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * n; }
	var s int = 0;
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i]; }
	emiti(s);
}`
	m := compile(t, src)
	if err := RunPipeline(m, Mem2Reg{}); err != nil {
		t.Fatal(err)
	}
	// The 8-word array alloca must survive (only scalars promote).
	arrays := 0
	for _, b := range m.Funcs[0].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.Args[0].Kind == ir.OperConst && in.Args[0].Imm == 8 {
				arrays++
			}
		}
	}
	if arrays != 1 {
		t.Fatalf("array alloca count after mem2reg = %d, want 1", arrays)
	}
	out := runOut(t, m, []uint64{3})
	if int64(out[0]) != 3*(0+1+2+3+4+5+6+7) {
		t.Fatalf("output = %v", out)
	}
}

func TestMem2RegRemovesScalarAllocas(t *testing.T) {
	m := compile(t, `
func main(n int) {
	var s int = 0;
	for (var i int = 0; i < n; i = i + 1) { s = s + i; }
	emiti(s);
}`)
	if err := RunPipeline(m, Mem2Reg{}, DCE{}); err != nil {
		t.Fatal(err)
	}
	for _, in := range m.Instrs {
		if in.Op == ir.OpAlloca {
			t.Fatalf("scalar alloca survived mem2reg: %s", in)
		}
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			t.Fatalf("stack traffic survived mem2reg: %s", in)
		}
	}
	// Phis must have been inserted for the loop-carried variables.
	phis := 0
	for _, in := range m.Instrs {
		if in.Op == ir.OpPhi {
			phis++
		}
	}
	if phis < 2 {
		t.Fatalf("expected loop phis, found %d", phis)
	}
	out := runOut(t, m, []uint64{10})
	if int64(out[0]) != 45 {
		t.Fatalf("output = %v, want [45]", out)
	}
}

func TestMem2RegShortCircuitInteraction(t *testing.T) {
	runBoth(t, `
func main(a int, b int) {
	var r int = 0;
	if (a > 0 && b > 0 || a == b) { r = 1; }
	if (!(a > b)) { r = r + 2; }
	emiti(r);
}`, [][]uint64{{1, 1}, {1, 0}, {0, 0}, {5, 2}, {2, 5}})
}

// Differential property: random inputs over a mixed program agree between
// the -O0 module and the fully optimized (mem2reg included) module.
func TestMem2RegDifferentialProperty(t *testing.T) {
	src := `
func collatz(n int) int {
	var steps int = 0;
	while (n != 1 && steps < 200) {
		if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
		steps = steps + 1;
	}
	return steps;
}
func main(x int) { emiti(collatz(x % 97 + 2)); }`
	orig := compile(t, src)
	opt := orig.Clone()
	if err := RunPipeline(opt, SimplifyCFG{}, Mem2Reg{}, ConstFold{}, DCE{}, SimplifyCFG{}); err != nil {
		t.Fatal(err)
	}
	r1 := interp.NewRunner(orig, interp.Config{})
	r2 := interp.NewRunner(opt, interp.Config{})
	prop := func(x uint32) bool {
		args := []uint64{uint64(x)}
		a := r1.Run(interp.Binding{Args: args}, nil, nil)
		b := r2.Run(interp.Binding{Args: args}, nil, nil)
		return a.Status == interp.StatusOK && b.Status == interp.StatusOK &&
			a.Output[0] == b.Output[0]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMem2RegIdempotent(t *testing.T) {
	m := compile(t, `
func main(n int) {
	var s int = 0;
	for (var i int = 0; i < n; i = i + 1) { s = s + i; }
	emiti(s);
}`)
	if err := RunPipeline(m, Mem2Reg{}); err != nil {
		t.Fatal(err)
	}
	changed, err := (Mem2Reg{}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("second mem2reg run reported changes")
	}
}

func TestMem2RegOnAllMiniCFeatures(t *testing.T) {
	// A stress program exercising every language construct; must verify
	// and agree with the unoptimized module.
	runBoth(t, `
var g int;
func helper(a int, b float) float {
	var acc float = b;
	while (a > 0) {
		acc = acc + 1.5;
		a = a - 1;
	}
	return acc;
}
func main(n int) {
	var total float = 0.0;
	for (var i int = 0; i < n; i = i + 1) {
		if (i % 2 == 0 || i > 7) {
			total = total + helper(i, float(i));
		} else if (i % 3 == 1) {
			total = total - 1.0;
		}
	}
	g = int(total);
	emiti(g);
	emitf(total);
}`, [][]uint64{{0}, {4}, {13}})
}

// TestMem2RegPhiOperandOrder pins the exact IR of two shapes no
// benchmark exercises. The phi operand order follows the dominator-tree
// walk, which visits children in reverse postorder: in (a) the join
// block bb2 sits before the else block bb3 in index order, yet bb3
// comes first in RPO, so its incoming value is listed first. In (b)
// SimplifyCFG threads the empty if/else into `condbr -> bb1 bb1`, one
// edge for the header's phis, so each lists the latch bb2 once. Both
// results must pass the strict SSA verifier, which this package links.
func TestMem2RegPhiOperandOrder(t *testing.T) {
	cases := []struct {
		name   string
		passes []Pass
		src    string
		want   string
	}{
		{"join-before-else", []Pass{Mem2Reg{}}, `
func main(x int) {
	var v int = 0;
	if (x > 0) {
		v = x + 1;
	} else {
		v = x - 1;
	}
	emiti(v);
}`, `module t.mc
func @main(%r0:i64) void {
bb0: ; entry
  [   0] %r4:i1 = icmp gt %r0:i64, 0:i64
  [   1] condbr %r4:i1 -> bb1 bb3
bb1: ; if.then
  [   2] %r6:i64 = add %r0:i64, 1:i64
  [   3] br -> bb2
bb2: ; if.end
  [   4] %r10:i64 = phi %r8:i64, %r6:i64 -> bb3 bb1  ; mem2reg
  [   5] callb @emiti %r10:i64
  [   6] ret
bb3: ; if.else
  [   7] %r8:i64 = sub %r0:i64, 1:i64
  [   8] br -> bb2
}
`},
		{"repeated-successor", []Pass{SimplifyCFG{}, Mem2Reg{}}, `
func main(n int) {
	var s int = 0;
	var i int = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
		if (s > 10) { } else { }
	}
	emiti(s);
}`, `module t.mc
func @main(%r0:i64) void {
bb0: ; entry
  [   0] br -> bb1
bb1: ; while.cond
  [   1] %r15:i64 = phi 0:i64, %r9:i64 -> bb0 bb2  ; mem2reg
  [   2] %r16:i64 = phi 0:i64, %r11:i64 -> bb0 bb2  ; mem2reg
  [   3] %r6:i1 = icmp lt %r16:i64, %r0:i64
  [   4] condbr %r6:i1 -> bb2 bb3
bb2: ; while.body
  [   5] %r9:i64 = add %r15:i64, %r16:i64
  [   6] %r11:i64 = add %r16:i64, 1:i64
  [   7] %r13:i1 = icmp gt %r9:i64, 10:i64
  [   8] condbr %r13:i1 -> bb1 bb1
bb3: ; while.end
  [   9] callb @emiti %r15:i64
  [  10] ret
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := compile(t, tc.src)
			if err := RunPipeline(m, tc.passes...); err != nil {
				t.Fatal(err)
			}
			if got := m.String(); got != tc.want {
				t.Errorf("IR:\n%s\nwant:\n%s", got, tc.want)
			}
			if err := ir.VerifyStrict(m); err != nil {
				t.Errorf("VerifyStrict: %v", err)
			}
		})
	}
}
