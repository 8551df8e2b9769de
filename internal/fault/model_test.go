package fault

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/interp"
)

// The registry must expose the portfolio the experiments advertise: the
// paper's default plus at least two alternative models, under stable
// names (they participate in cache keys).
func TestModelRegistry(t *testing.T) {
	if got := DefaultModel().Name(); got != "bitflip" {
		t.Fatalf("default model %q, want bitflip", got)
	}
	names := ModelNames()
	if len(names) < 3 {
		t.Fatalf("registry has %d models, want >= 3: %v", len(names), names)
	}
	for _, want := range []string{"bitflip", "bitflip2", "byteflip", "stuckat0", "stuckat1", "defect"} {
		m, ok := ModelByName(want)
		if !ok {
			t.Fatalf("model %q not registered (have %v)", want, names)
		}
		if m.Name() != want {
			t.Fatalf("model registered as %q reports Name %q", want, m.Name())
		}
	}
	if got := KBit(2).Name(); got != "bitflip2" {
		t.Fatalf("KBit(2).Name() = %q, want bitflip2 (RunMultiBit registry alias)", got)
	}
}

// Perturb must be a pure function of (width, RNG state): two RNGs with
// the same seed must yield identical effect streams so campaigns replay
// bit-identically from a seed.
func TestModelPerturbDeterminism(t *testing.T) {
	for _, m := range Models() {
		for _, width := range []uint{1, 8, 32, 64} {
			a := rand.New(rand.NewSource(42))
			b := rand.New(rand.NewSource(42))
			for i := 0; i < 200; i++ {
				ea := m.Perturb(width, a)
				eb := m.Perturb(width, b)
				if ea != eb {
					t.Fatalf("%s width %d draw %d: %+v vs %+v", m.Name(), width, i, ea, eb)
				}
				mask := ea.Mask
				if mask == 0 {
					mask = 1 << ea.Bit
				}
				if mask == 0 || mask&^widthMaskOf(width) != 0 {
					t.Fatalf("%s width %d draw %d: effect mask %#x outside width", m.Name(), width, i, mask)
				}
			}
		}
	}
}

// Patterns must be deterministic across calls, stay inside the value
// width, honor max, and be pairwise distinct — the differential suite
// replays them through both engines and dedup matters there.
func TestModelPatternsDeterministic(t *testing.T) {
	for _, m := range Models() {
		for _, width := range []uint{1, 8, 64} {
			p1 := m.Patterns(width, 16)
			p2 := m.Patterns(width, 16)
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("%s width %d: Patterns not deterministic", m.Name(), width)
			}
			if len(p1) == 0 {
				t.Fatalf("%s width %d: no patterns", m.Name(), width)
			}
			if len(p1) > 16 {
				t.Fatalf("%s width %d: %d patterns exceed max 16", m.Name(), width, len(p1))
			}
			seen := map[Effect]bool{}
			for _, e := range p1 {
				if e.Mask == 0 || e.Mask&^widthMaskOf(width) != 0 {
					t.Fatalf("%s width %d: pattern mask %#x invalid", m.Name(), width, e.Mask)
				}
				if seen[e] {
					t.Fatalf("%s width %d: duplicate pattern %+v", m.Name(), width, e)
				}
				seen[e] = true
			}
		}
	}
}

// The k-bit model must flip exactly k distinct bits (clamped to the
// width) with a pure XOR op — the contract RunMultiBit's campaigns and
// the triage mask check rely on.
func TestKBitDistinctBits(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		m := KBit(k)
		for _, width := range []uint{1, 8, 64} {
			want := k
			if want > int(width) {
				want = int(width)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 100; i++ {
				e := m.Perturb(width, rng)
				if e.Op != interp.FaultXor {
					t.Fatalf("bitflip%d: op %v, want XOR", k, e.Op)
				}
				if got := bits.OnesCount64(e.Mask); got != want {
					t.Fatalf("bitflip%d width %d: %d bits set (%#x), want %d", k, width, got, e.Mask, want)
				}
			}
		}
	}
}

// The default model's site stream must match the historical sampler:
// one rng.Intn(width) per draw yielding a Bit-form effect. This is the
// byte-identity anchor for the paper's fig2/fig8 defaults.
func TestBitflipLegacyStream(t *testing.T) {
	m := DefaultModel()
	a := rand.New(rand.NewSource(123))
	b := rand.New(rand.NewSource(123))
	for i := 0; i < 100; i++ {
		e := m.Perturb(64, a)
		want := Effect{Bit: uint(b.Intn(64))}
		if e != want {
			t.Fatalf("draw %d: %+v, want legacy %+v", i, e, want)
		}
	}
}

// Stuck-at effects must carry the matching engine op so replay applies
// AND-NOT / OR rather than XOR.
func TestStuckAtOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m0, _ := ModelByName("stuckat0")
	m1, _ := ModelByName("stuckat1")
	if e := m0.Perturb(64, rng); e.Op != interp.FaultStuckAt0 {
		t.Fatalf("stuckat0 op %v", e.Op)
	}
	if e := m1.Perturb(64, rng); e.Op != interp.FaultStuckAt1 {
		t.Fatalf("stuckat1 op %v", e.Op)
	}
	md, _ := ModelByName("defect")
	for _, e := range md.Patterns(64, 0) {
		if e.Op != interp.FaultStuckAt1 {
			t.Fatalf("defect pattern op %v", e.Op)
		}
		line := uint(bits.TrailingZeros64(e.Mask))
		if line >= 8 || e.Mask != (defectLanes<<line)&widthMaskOf(64) {
			t.Fatalf("defect pattern %#x is not a repeated bit line", e.Mask)
		}
	}
}
