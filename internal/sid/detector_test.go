package sid

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/passes"
)

// detKernelSrc extends the measurement kernel with masked/shifted
// values (known-bits facts for the inv detector) while keeping a loop
// comparison the cfgsig detector can protect.
const detKernelSrc = `
var data[] int;
func main(n int) {
	var s int = 0;
	var t int = 0;
	for (var i int = 0; i < n; i = i + 1) {
		var v int = data[i % len(data)];
		var w int = (v & 63) << 2;
		s = s + w + v * 3;
		if (v > 4) { t = t + 1; }
	}
	emiti(s);
	emiti(t);
}`

func measureDetKernel(t testing.TB) (*ir.Module, interp.Binding, *Measurement) {
	t.Helper()
	m, err := minicc.Compile("dk.mc", detKernelSrc)
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
	meas, err := Measure(m, bind, Config{FaultsPerInstr: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, bind, meas
}

// The dup-only portfolio must reproduce the 0-1 knapsack exactly: same
// chosen sites, same coverage and cost accounting, for both methods.
func TestPortfolioDupEquivalence(t *testing.T) {
	m, _, meas := measureDetKernel(t)
	for _, method := range []Method{MethodDP, MethodGreedy} {
		for _, level := range []float64{0, 0.1, 0.3, 0.5, 0.7, 1} {
			old := Select(m, meas, level, method)
			nu := SelectPortfolio(m, meas, level, method,
				[]Detector{DefaultDetector()}, fault.DefaultModel())
			if len(old.Chosen) != len(nu.Chosen) {
				t.Fatalf("method %d level %.1f: chosen %d vs %d",
					method, level, len(old.Chosen), len(nu.Chosen))
			}
			for i := range old.Chosen {
				if old.Chosen[i] != nu.Chosen[i] {
					t.Fatalf("method %d level %.1f: chosen[%d] = %d vs %d",
						method, level, i, old.Chosen[i], nu.Chosen[i])
				}
				if nu.Detectors[i] != "dup" {
					t.Fatalf("detector[%d] = %q", i, nu.Detectors[i])
				}
			}
			if old.ExpectedCoverage != nu.ExpectedCoverage {
				t.Fatalf("coverage %v vs %v", old.ExpectedCoverage, nu.ExpectedCoverage)
			}
			if old.CostUsed != nu.CostUsed {
				t.Fatalf("cost %v vs %v", old.CostUsed, nu.CostUsed)
			}
			if old.TotalBenefit != nu.TotalBenefit {
				t.Fatalf("benefit mass %v vs %v", old.TotalBenefit, nu.TotalBenefit)
			}
		}
	}
}

// An all-dup LowerSelection must produce the identical module to the
// legacy Duplicate transform, and InstrMap the identical translation to
// ProtectedMap.
func TestLowerSelectionDupByteIdentical(t *testing.T) {
	m, _, meas := measureDetKernel(t)
	sel := Select(m, meas, 0.5, MethodDP)
	legacy := Duplicate(m, sel.Chosen)
	lowered := LowerSelection(m, sel)
	if legacy.String() != lowered.String() {
		t.Fatalf("LowerSelection(all-dup) differs from Duplicate:\n--- Duplicate\n%s\n--- LowerSelection\n%s",
			legacy.String(), lowered.String())
	}
	want := ProtectedMap(m, sel.Chosen)
	got := InstrMap(m, lowered)
	if len(want) != len(got) {
		t.Fatalf("map sizes %d vs %d", len(want), len(got))
	}
	for id, nw := range want {
		if got[id] != nw {
			t.Fatalf("map[%d] = %d, want %d", id, got[id], nw)
		}
	}
}

// Every registered detector must lower to a verifying module that
// behaves identically to the original on fault-free runs.
func TestDetectorLoweringPreservesSemantics(t *testing.T) {
	m, bind, meas := measureDetKernel(t)
	fa := analysis.FactsFor(m)
	golden := meas.Golden
	for _, d := range Detectors() {
		var chosen []int
		var names []string
		for _, in := range m.Instrs {
			if Duplicable(m, in) && d.Applicable(fa, in.ID) {
				chosen = append(chosen, in.ID)
				names = append(names, d.Name())
			}
		}
		if len(chosen) == 0 {
			t.Fatalf("detector %s: no applicable site in kernel", d.Name())
		}
		prot := LowerSelection(m, Selection{Chosen: chosen, Detectors: names})
		if err := ir.Verify(prot); err != nil {
			t.Fatalf("detector %s: lowered module invalid: %v", d.Name(), err)
		}
		res := interp.NewRunner(prot, interp.Config{}).Run(bind, nil, nil)
		if res.Status != interp.StatusOK {
			t.Fatalf("detector %s: fault-free run ended %s (%s)", d.Name(), res.Status, res.Trap)
		}
		if len(res.Output) != len(golden.Output) {
			t.Fatalf("detector %s: output length %d vs %d", d.Name(), len(res.Output), len(golden.Output))
		}
		for i := range res.Output {
			if res.Output[i] != golden.Output[i] {
				t.Fatalf("detector %s: output[%d] = %d, want %d",
					d.Name(), i, res.Output[i], golden.Output[i])
			}
		}
	}
}

// Cost factors must keep duplication the normalization point and the
// coverage estimates must stay within [0,1] for every model.
func TestDetectorCostCoverageBounds(t *testing.T) {
	m, _, _ := measureDetKernel(t)
	fa := analysis.FactsFor(m)
	for _, d := range Detectors() {
		for _, in := range m.Instrs {
			if !Duplicable(m, in) || !d.Applicable(fa, in.ID) {
				continue
			}
			if cf := d.CostFactor(fa, in.ID); cf <= 0 {
				t.Fatalf("%s cost factor %v at %d", d.Name(), cf, in.ID)
			}
			for _, mod := range fault.Models() {
				cov := d.Coverage(fa, in.ID, mod)
				if cov < 0 || cov > 1 {
					t.Fatalf("%s coverage %v under %s at %d", d.Name(), cov, mod.Name(), in.ID)
				}
			}
			if d.Name() == "dup" {
				if cf := d.CostFactor(fa, in.ID); cf != 1 {
					t.Fatalf("dup cost factor %v", cf)
				}
				if cov := d.Coverage(fa, in.ID, fault.DefaultModel()); cov != 1 {
					t.Fatalf("dup coverage %v", cov)
				}
			}
		}
	}
}

// A lowered detector must actually detect: inject a fault directly into
// a protected site's result and require a Detected (or at least
// not-SDC) outcome for the patterns the detector claims to cover.
func TestDetectorCatchesClaimedPatterns(t *testing.T) {
	m, bind, meas := measureDetKernel(t)
	fa := analysis.FactsFor(m)
	for _, d := range Detectors() {
		var chosen []int
		var names []string
		for _, in := range m.Instrs {
			if Duplicable(m, in) && d.Applicable(fa, in.ID) &&
				meas.Golden.Profile.InstrCount[in.ID] > 0 {
				chosen = append(chosen, in.ID)
				names = append(names, d.Name())
			}
		}
		if len(chosen) == 0 {
			t.Fatalf("detector %s: no executed applicable site", d.Name())
		}
		prot := LowerSelection(m, Selection{Chosen: chosen, Detectors: names})
		idMap := InstrMap(m, prot)
		goldenP, err := fault.RunGolden(prot, bind, interp.Config{})
		if err != nil {
			t.Fatalf("detector %s: protected golden: %v", d.Name(), err)
		}
		camp := &fault.Campaign{Mod: prot, Bind: bind, Cfg: interp.Config{},
			Golden: goldenP, Triage: fault.TriageOff}
		for _, mod := range fault.Models() {
			checked := 0
			for _, id := range chosen {
				width := m.Instrs[id].Type.Bits()
				cov := d.Coverage(fa, id, mod)
				if cov < 1 {
					// Partial coverage: pattern-level misses are
					// legitimate; the full-coverage contract below is
					// the strong check.
					continue
				}
				for _, p := range mod.Patterns(width, 8) {
					site := interp.Fault{InstrID: idMap[id], DynIndex: 0,
						Bit: p.Bit, Mask: p.Mask, Op: p.Op}
					out := camp.RunSites([]interp.Fault{site})
					if out[0] == fault.OutcomeSDC {
						t.Fatalf("detector %s claims full %s coverage at site %d but pattern mask=%#x op=%v caused an SDC",
							d.Name(), mod.Name(), id, p.Mask, p.Op)
					}
					checked++
				}
			}
			if d.Name() == "dup" && checked == 0 {
				t.Fatalf("dup: no full-coverage pattern checked under %s", mod.Name())
			}
		}
	}
}
