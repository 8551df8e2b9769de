package ir

import "testing"

type testKeyA struct{}
type testKeyB struct{}

// Each key is built once per snapshot, a build may derive another key of
// the same module, and Finalize drops every value.
func TestDerivedBuildsOncePerSnapshot(t *testing.T) {
	m := sumModule(t)
	builds := 0
	buildB := func(m *Module) int { builds++; return m.NumInstrs() }
	buildA := func(m *Module) int { return Derived(m, testKeyB{}, buildB) + 1 }
	for i := 0; i < 3; i++ {
		if got, want := Derived(m, testKeyA{}, buildA), m.NumInstrs()+1; got != want {
			t.Fatalf("Derived = %d, want %d", got, want)
		}
	}
	if builds != 1 {
		t.Fatalf("built %d times for one snapshot, want 1", builds)
	}
	m.Finalize()
	Derived(m, testKeyA{}, buildA)
	if builds != 2 {
		t.Fatalf("built %d times across two snapshots, want 2", builds)
	}
}

// A clone starts with no derived values of its own.
func TestCloneStartsWithNoDerivedValues(t *testing.T) {
	m := sumModule(t)
	ss := PartitionSections(m)
	cp := m.Clone()
	if got := PartitionSections(cp); got == ss || got.Mod != cp {
		t.Fatal("clone served the original's section partition")
	}
	if PartitionSections(m) != ss {
		t.Fatal("cloning dropped the original's derived values")
	}
}
