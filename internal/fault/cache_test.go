package fault

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
)

func testBinding(n uint64) interp.Binding {
	return interp.Binding{
		Args:    []uint64{n},
		Globals: map[string][]uint64{"data": {3, 8, 1, 6, 2, 9, 4}},
	}
}

func TestBindingKeyCanonical(t *testing.T) {
	a := interp.Binding{
		Args:    []uint64{1, 2},
		Globals: map[string][]uint64{"x": {1}, "y": {2, 3}},
	}
	b := interp.Binding{
		Args:    []uint64{1, 2},
		Globals: map[string][]uint64{"y": {2, 3}, "x": {1}},
	}
	if BindingKey(a) != BindingKey(b) {
		t.Fatal("BindingKey depends on map iteration order")
	}
	c := interp.Binding{
		Args:    []uint64{1, 2},
		Globals: map[string][]uint64{"x": {1}, "y": {2, 4}},
	}
	if BindingKey(a) == BindingKey(c) {
		t.Fatal("BindingKey ignores global contents")
	}
	// Length framing: args {1,2} + global {3} must differ from args {1}
	// + global {2,3} even though the flattened words collide.
	d := interp.Binding{Args: []uint64{1, 2}, Globals: map[string][]uint64{"g": {3}}}
	e := interp.Binding{Args: []uint64{1}, Globals: map[string][]uint64{"g": {2, 3}}}
	if BindingKey(d) == BindingKey(e) {
		t.Fatal("BindingKey does not frame element counts")
	}
}

func TestCacheGoldenMemoizes(t *testing.T) {
	m, bind, _ := setup(t)
	c := NewCache(0)
	pm := NewMetrics().Phase("test")

	g1, err := c.Golden(m, bind, interp.Config{}, pm)
	if err != nil {
		t.Fatalf("Golden: %v", err)
	}
	g2, err := c.Golden(m, bind, interp.Config{}, pm)
	if err != nil {
		t.Fatalf("Golden (cached): %v", err)
	}
	if g1 != g2 {
		t.Fatal("second lookup did not return the memoized *Golden")
	}
	s := c.Stats()
	if s.GoldenMisses != 1 || s.GoldenHits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", s)
	}
	snap := pm.Snapshot()
	if snap.GoldenRuns != 1 {
		t.Fatalf("GoldenRuns = %d, want 1 (hit must not re-run)", snap.GoldenRuns)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("phase cache counters = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}

	// A different binding is a different key.
	if _, err := c.Golden(m, testBinding(51), interp.Config{}, pm); err != nil {
		t.Fatalf("Golden (other bind): %v", err)
	}
	if s := c.Stats(); s.GoldenMisses != 2 {
		t.Fatalf("other binding hit the cache: %+v", s)
	}
}

// A module edited and re-finalized in place is a new snapshot: the cache
// must run it again, not serve the old snapshot's golden run.
func TestCacheGoldenRerunsAfterInPlaceEdit(t *testing.T) {
	m, err := minicc.Compile("edit.mc", `func main(n int) { emiti(n+1); emiti(n*3); }`)
	if err != nil {
		t.Fatal(err)
	}
	bind := interp.Binding{Args: []uint64{5}}
	c := NewCache(0)
	if _, err := c.Golden(m, bind, interp.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	entry := m.Funcs[0].Blocks[0]
	i := slices.IndexFunc(entry.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpCallB })
	entry.Instrs = slices.Delete(entry.Instrs, i, i+1) // drop emiti(n+1)
	m.Finalize()
	got, err := c.Golden(m, bind, interp.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunGolden(m, bind, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Output, want.Output) || len(want.Output) != 1 {
		t.Fatalf("golden output after edit = %v, want %v", got.Output, want.Output)
	}
}

func TestCacheGoldenMemoizesErrors(t *testing.T) {
	m, _, _ := setup(t)
	c := NewCache(0)
	// n = 0 makes the loop not run but is fine; use a hanging budget
	// instead: tiny MaxDynInstrs forces a golden failure.
	cfg := interp.Config{MaxDynInstrs: 1}
	if _, err := c.Golden(m, testBinding(50), cfg, nil); err == nil {
		t.Fatal("expected golden failure under 1-instruction budget")
	}
	if _, err := c.Golden(m, testBinding(50), cfg, nil); err == nil {
		t.Fatal("memoized error lookup succeeded")
	}
	s := c.Stats()
	if s.GoldenMisses != 1 || s.GoldenHits != 1 {
		t.Fatalf("errors are not memoized: %+v", s)
	}
}

func TestCacheNilIsTransparent(t *testing.T) {
	m, bind, _ := setup(t)
	var c *Cache
	g, err := c.Golden(m, bind, interp.Config{}, nil)
	if err != nil || g == nil {
		t.Fatalf("nil-cache Golden = %v, %v", g, err)
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil-cache stats = %+v", s)
	}
	camp := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
	sites, outcomes, shortfall := c.unprotectedCampaign(camp, false, 20, 1)
	if len(sites) != 20 || len(outcomes) != 20 || shortfall != 0 {
		t.Fatalf("nil-cache campaign: %d sites, %d outcomes, shortfall %d",
			len(sites), len(outcomes), shortfall)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m, _, _ := setup(t)
	c := NewCache(2)
	for i := uint64(0); i < 3; i++ {
		if _, err := c.Golden(m, testBinding(10+i), interp.Config{}, nil); err != nil {
			t.Fatalf("Golden %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s.Goldens != 2 {
		t.Fatalf("resident goldens = %d, want 2 (capacity)", s.Goldens)
	}
	// The oldest entry (n=10) was evicted: re-requesting it misses.
	if _, err := c.Golden(m, testBinding(10), interp.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.GoldenMisses != 4 || s.GoldenHits != 0 {
		t.Fatalf("evicted entry served a hit: %+v", s)
	}
	// The most recent entry (n=12) is still resident.
	if _, err := c.Golden(m, testBinding(12), interp.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.GoldenHits != 1 {
		t.Fatalf("recent entry was evicted: %+v", s)
	}
}

func TestCacheUnprotectedCampaignMemoizes(t *testing.T) {
	m, bind, g := setup(t)
	c := NewCache(0)
	camp := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}

	s1, o1, sf1 := c.unprotectedCampaign(camp, true, 40, 7)
	s2, o2, sf2 := c.unprotectedCampaign(camp, true, 40, 7)
	if &s1[0] != &s2[0] || &o1[0] != &o2[0] || sf1 != sf2 {
		t.Fatal("second campaign lookup did not return the memoized slices")
	}
	// Different seed, trial count, or excludeDup are distinct keys.
	c.unprotectedCampaign(camp, true, 40, 8)
	c.unprotectedCampaign(camp, true, 41, 7)
	c.unprotectedCampaign(camp, false, 40, 7)
	st := c.Stats()
	if st.CampaignHits != 1 || st.CampaignMisses != 4 {
		t.Fatalf("campaign stats = %+v, want 1 hit / 4 misses", st)
	}

	// Memoized outcomes equal a fresh computation.
	fresh := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
	sampler := NewSampler(m, g, true)
	wantSites, wantShortfall := sampleSites(40, 7, sampler.RandomSite)
	wantOutcomes := fresh.runSites(wantSites)
	if sf1 != wantShortfall || len(o1) != len(wantOutcomes) {
		t.Fatalf("memoized campaign shape differs: %d/%d vs %d/%d",
			len(o1), sf1, len(wantOutcomes), wantShortfall)
	}
	for i := range wantOutcomes {
		if o1[i] != wantOutcomes[i] || s1[i] != wantSites[i] {
			t.Fatalf("memoized campaign diverges at site %d", i)
		}
	}
}

// TestCacheConcurrentSingleFlight hammers one key from many goroutines:
// exactly one golden run must execute, every caller must observe the same
// pointer, and the run must be race-free (exercised under -race in CI).
func TestCacheConcurrentSingleFlight(t *testing.T) {
	m, bind, _ := setup(t)
	c := NewCache(0)
	pm := NewMetrics().Phase("test")

	const callers = 16
	goldens := make([]*Golden, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.Golden(m, bind, interp.Config{}, pm)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			goldens[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if goldens[i] != goldens[0] {
			t.Fatalf("caller %d saw a different *Golden", i)
		}
	}
	if snap := pm.Snapshot(); snap.GoldenRuns != 1 {
		t.Fatalf("GoldenRuns = %d, want exactly 1 (single flight)", snap.GoldenRuns)
	}
}

// TestCacheConcurrentMixedKeys exercises concurrent lookups across
// different keys plus campaign memoization under contention.
func TestCacheConcurrentMixedKeys(t *testing.T) {
	m, _, _ := setup(t)
	c := NewCache(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				bind := testBinding(uint64(40 + (i+j)%3))
				g, err := c.Golden(m, bind, interp.Config{}, nil)
				if err != nil {
					t.Errorf("Golden: %v", err)
					return
				}
				camp := &Campaign{Mod: m, Bind: bind, Cfg: interp.Config{}, Golden: g}
				_, outcomes, _ := c.unprotectedCampaign(camp, true, 10, int64(j%2))
				if len(outcomes) != 10 {
					t.Errorf("campaign returned %d outcomes", len(outcomes))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s := c.Stats(); s.GoldenHits+s.GoldenMisses == 0 || s.CampaignHits+s.CampaignMisses == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
}
