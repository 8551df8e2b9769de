package fault

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/ir"
)

// BindingKey returns a canonical content identity for an input binding:
// a SHA-256 over the argument words and the sorted global arrays. Two
// bindings with equal keys produce identical executions of the same
// module, so the key is a safe memoization handle.
func BindingKey(bind interp.Binding) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(bind.Args)))
	h.Write(buf[:])
	for _, a := range bind.Args {
		binary.LittleEndian.PutUint64(buf[:], a)
		h.Write(buf[:])
	}
	names := make([]string, 0, len(bind.Globals))
	for n := range bind.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		vs := bind.Globals[n]
		binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
		h.Write(buf[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// goldenKey identifies one memoized golden run. The module pointer and
// its Finalize version name one module snapshot, so a module edited and
// re-finalized in place is run again; the execution config participates
// because it bounds the run.
type goldenKey struct {
	mod     *ir.Module
	version uint64
	cfg     interp.Config
	bind    [sha256.Size]byte
}

// campaignKey identifies one memoized unprotected-program campaign
// (site sample + index-aligned outcomes).
type campaignKey struct {
	mod        *ir.Module
	version    uint64
	cfg        interp.Config
	bind       [sha256.Size]byte
	model      string // fault-model name: isolates per-model site samples
	n          int
	seed       int64
	excludeDup bool
}

// goldenEntry is a single-flight cache slot: the first requester computes
// while later requesters for the same key block on ready.
type goldenEntry struct {
	ready chan struct{}
	g     *Golden
	err   error
}

// campaignEntry memoizes one campaign's drawn sites and outcomes.
type campaignEntry struct {
	ready     chan struct{}
	sites     []interp.Fault
	outcomes  []Outcome
	shortfall int64
}

// lruTable is a mutex-external LRU map from comparable keys to entries.
type lruTable struct {
	cap int
	ll  *list.List // front = most recent; values are *lruNode
	m   map[any]*list.Element
}

type lruNode struct {
	key any
	val any
}

func newLRUTable(capacity int) *lruTable {
	return &lruTable{cap: capacity, ll: list.New(), m: make(map[any]*list.Element)}
}

// get returns the entry for key and marks it most-recently used.
func (t *lruTable) get(key any) (any, bool) {
	e, ok := t.m[key]
	if !ok {
		return nil, false
	}
	t.ll.MoveToFront(e)
	return e.Value.(*lruNode).val, true
}

// add inserts key (assumed absent) and evicts the least-recently-used
// entries beyond capacity. Evicted in-flight entries stay valid for the
// goroutines already holding them; they simply stop being shared.
func (t *lruTable) add(key, val any) {
	t.m[key] = t.ll.PushFront(&lruNode{key: key, val: val})
	for t.ll.Len() > t.cap {
		back := t.ll.Back()
		t.ll.Remove(back)
		delete(t.m, back.Value.(*lruNode).key)
	}
}

// DefaultCacheEntries bounds the golden-run table of a Cache built with
// NewCache(0). Campaign memos are far smaller per entry, so their table
// holds four times as many.
const DefaultCacheEntries = 256

// Cache is the campaign engine's memoization layer: it remembers golden
// runs (output, cycle counts, and full dynamic profile) and
// unprotected-program campaign results, keyed by (module snapshot,
// canonicalized input binding, execution config). Both tables are
// LRU-bounded and safe for concurrent use; concurrent requests for the
// same key share one computation (single flight).
//
// Golden runs and campaigns are deterministic, so a memoized result is
// bit-identical to a recomputed one: the cache can never change a
// selection, coverage number, or search trace.
type Cache struct {
	mu        sync.Mutex
	goldens   *lruTable
	campaigns *lruTable

	goldenHits, goldenMisses     int64
	campaignHits, campaignMisses int64
}

// NewCache returns a Cache bounded to the given number of golden-run
// entries (<= 0 selects DefaultCacheEntries).
func NewCache(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	return &Cache{
		goldens:   newLRUTable(entries),
		campaigns: newLRUTable(4 * entries),
	}
}

// Golden returns the memoized golden run of m under bind/cfg, executing
// it on first use. Errors (inadmissible inputs) are memoized too. pm, if
// non-nil, receives hit/miss and golden-run accounting. A nil Cache
// always recomputes.
//
// The returned Golden (including its Profile) is shared across callers
// and must be treated as immutable.
func (c *Cache) Golden(m *ir.Module, bind interp.Binding, cfg interp.Config, pm *PhaseMetrics) (*Golden, error) {
	if c == nil {
		return runGoldenTimed(m, bind, cfg, pm)
	}
	key := goldenKey{mod: m, version: m.Version(), cfg: cfg, bind: BindingKey(bind)}
	c.mu.Lock()
	if v, ok := c.goldens.get(key); ok {
		c.goldenHits++
		c.mu.Unlock()
		pm.AddCacheHit()
		e := v.(*goldenEntry)
		<-e.ready
		return e.g, e.err
	}
	c.goldenMisses++
	e := &goldenEntry{ready: make(chan struct{})}
	c.goldens.add(key, e)
	c.mu.Unlock()

	pm.AddCacheMiss()
	e.g, e.err = runGoldenTimed(m, bind, cfg, pm)
	close(e.ready)
	return e.g, e.err
}

// runGoldenTimed is RunGolden with phase accounting: the run's wall time
// is attributed to pm (golden runs are single-threaded, so wall == busy).
func runGoldenTimed(m *ir.Module, bind interp.Binding, cfg interp.Config, pm *PhaseMetrics) (*Golden, error) {
	pm.AddGoldenRun()
	t0 := time.Now()
	g, err := RunGolden(m, bind, cfg)
	d := time.Since(t0)
	pm.AddWall(d)
	pm.AddBusy(d)
	pm.ObserveWorkers(1)
	return g, err
}

// unprotectedCampaign returns the memoized program-level campaign of camp
// (site sample from seed plus index-aligned outcomes), executing it on
// first use. The returned slices are shared and must not be mutated.
func (c *Cache) unprotectedCampaign(camp *Campaign, excludeDup bool, n int, seed int64) (sites []interp.Fault, outcomes []Outcome, shortfall int64) {
	m := camp.model()
	run := func() ([]interp.Fault, []Outcome, int64) {
		sampler := NewSampler(camp.Mod, camp.Golden, excludeDup)
		sites, shortfall := sampleSites(n, seed, func(rng *rand.Rand) (interp.Fault, bool) {
			return sampler.RandomSiteModel(m, rng)
		})
		return sites, camp.runSites(sites), shortfall
	}
	if c == nil {
		return run()
	}
	key := campaignKey{
		mod: camp.Mod, version: camp.Mod.Version(), cfg: camp.Cfg, bind: BindingKey(camp.Bind),
		model: m.Name(), n: n, seed: seed, excludeDup: excludeDup,
	}
	c.mu.Lock()
	if v, ok := c.campaigns.get(key); ok {
		c.campaignHits++
		c.mu.Unlock()
		camp.Metrics.AddCacheHit()
		e := v.(*campaignEntry)
		<-e.ready
		return e.sites, e.outcomes, e.shortfall
	}
	c.campaignMisses++
	e := &campaignEntry{ready: make(chan struct{})}
	c.campaigns.add(key, e)
	c.mu.Unlock()

	camp.Metrics.AddCacheMiss()
	e.sites, e.outcomes, e.shortfall = run()
	close(e.ready)
	return e.sites, e.outcomes, e.shortfall
}

// CacheStats reports cumulative cache traffic and current sizes.
type CacheStats struct {
	GoldenHits     int64 `json:"golden_hits"`
	GoldenMisses   int64 `json:"golden_misses"`
	CampaignHits   int64 `json:"campaign_hits"`
	CampaignMisses int64 `json:"campaign_misses"`
	// Entries currently resident.
	Goldens   int `json:"goldens"`
	Campaigns int `json:"campaigns"`
}

// HitRate returns the overall hit fraction across both tables.
func (s CacheStats) HitRate() float64 {
	total := s.GoldenHits + s.GoldenMisses + s.CampaignHits + s.CampaignMisses
	if total == 0 {
		return 0
	}
	return float64(s.GoldenHits+s.CampaignHits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		GoldenHits: c.goldenHits, GoldenMisses: c.goldenMisses,
		CampaignHits: c.campaignHits, CampaignMisses: c.campaignMisses,
		Goldens: c.goldens.ll.Len(), Campaigns: c.campaigns.ll.Len(),
	}
}

// String renders the stats one-liner printed by the -metrics CLIs.
func (s CacheStats) String() string {
	return fmt.Sprintf("cache: golden %d hit / %d miss, campaign %d hit / %d miss, %.1f%% overall hit rate (%d+%d resident)",
		s.GoldenHits, s.GoldenMisses, s.CampaignHits, s.CampaignMisses,
		100*s.HitRate(), s.Goldens, s.Campaigns)
}
