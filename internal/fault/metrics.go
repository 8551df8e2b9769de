package fault

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// Canonical campaign phases: the Fig. 8 cost categories of the MINPSID
// pipeline plus the coverage-evaluation campaigns the harness runs on top.
const (
	PhaseRefFI        = "ref-fi"        // ① per-instruction FI on the reference input
	PhaseSearchEngine = "search-engine" // ③-⑥ input search incl. fitness golden runs
	PhaseIncubativeFI = "incubative-fi" // ⑦ per-instruction FI on searched inputs
	PhaseEvaluation   = "evaluation"    // coverage campaigns on evaluation inputs
	PhaseProgramFI    = "program-fi"    // raw characterization campaigns (sdcfi, server jobs)
)

// Metrics aggregates campaign-engine measurements grouped by pipeline
// phase: trial counts, outcome histograms, golden-run and cache traffic,
// and wall/busy time. All methods are safe for concurrent use and are
// no-ops on a nil receiver, so instrumentation call sites need no guards.
//
// Metrics observe the engine; they never influence it. Enabling or
// disabling metrics cannot change any campaign result.
type Metrics struct {
	mu     sync.Mutex
	order  []string
	phases map[string]*PhaseMetrics
}

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{phases: make(map[string]*PhaseMetrics)}
}

// Phase returns the named phase accumulator, creating it on first use.
// A nil Metrics returns a nil *PhaseMetrics whose methods are no-ops.
func (m *Metrics) Phase(name string) *PhaseMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.phases[name]
	if !ok {
		p = &PhaseMetrics{name: name}
		m.phases[name] = p
		m.order = append(m.order, name)
	}
	return p
}

// PhaseMetrics accumulates measurements for one pipeline phase.
type PhaseMetrics struct {
	mu            sync.Mutex
	name          string
	trials        int64
	outcomes      [NumOutcomes]int64
	shortfall     int64
	pruned        int64
	prunedBy      map[string]int64 // pruned trials per fault-model name
	prunedByProof map[string]int64 // pruned trials per triage proof class
	goldenRuns    int64
	cacheHits     int64
	cacheMisses   int64
	wall          time.Duration
	busy          time.Duration
	maxWorkers    int
	checkpoint    CheckpointStats
	instrs        [NumOutcomes]int64
}

// CheckpointStats counts golden-checkpoint use (interp.Checkpoints):
// capture runs, trials resumed from a checkpoint and the golden-prefix
// instructions they did not execute, trials that converged to a golden
// checkpoint and the golden-suffix instructions they did not execute,
// and the batches that ran every trial from the start, per reason
// ("small_batch", "spawn", "legacy", "capture_mismatch").
type CheckpointStats struct {
	Captures        int64            `json:"captures"`
	Restores        int64            `json:"restores"`
	SkippedInstrs   int64            `json:"skipped_instrs"`
	Converged       int64            `json:"converged"`
	ConvergedInstrs int64            `json:"converged_instrs"`
	Fallbacks       map[string]int64 `json:"fallbacks,omitempty"`
}

// add accumulates o into s.
func (s *CheckpointStats) add(o CheckpointStats) {
	s.Captures += o.Captures
	s.Restores += o.Restores
	s.SkippedInstrs += o.SkippedInstrs
	s.Converged += o.Converged
	s.ConvergedInstrs += o.ConvergedInstrs
	for k, v := range o.Fallbacks {
		if s.Fallbacks == nil {
			s.Fallbacks = make(map[string]int64)
		}
		s.Fallbacks[k] += v
	}
}

// String renders the stats one-liner printed by the -metrics CLIs.
func (s CheckpointStats) String() string {
	line := fmt.Sprintf("checkpoints: %d captures, %d restores, %d instrs skipped, %d converged, %d instrs converged",
		s.Captures, s.Restores, s.SkippedInstrs, s.Converged, s.ConvergedInstrs)
	if len(s.Fallbacks) > 0 {
		line += "; fallbacks: " + countList(s.Fallbacks)
	}
	return line
}

// countList renders counts as "key n, key n" in key order.
func countList(counts map[string]int64) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %d", k, counts[k])
	}
	return strings.Join(parts, ", ")
}

// AddCheckpoint folds checkpoint use (captures, restores, skipped
// instructions, fallbacks) into the phase.
func (p *PhaseMetrics) AddCheckpoint(s CheckpointStats) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.checkpoint.add(s)
	p.mu.Unlock()
}

// AddInstrs adds the instructions executed trials ran, per outcome.
func (p *PhaseMetrics) AddInstrs(n [NumOutcomes]int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for o, k := range n {
		p.instrs[o] += k
	}
	p.mu.Unlock()
}

// AddOutcomes folds one batch of executed trial outcomes into the phase.
func (p *PhaseMetrics) AddOutcomes(os []Outcome) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, o := range os {
		p.outcomes[o]++
	}
	p.trials += int64(len(os))
	p.mu.Unlock()
}

// AddShortfall records trials a campaign requested but could not draw.
func (p *PhaseMetrics) AddShortfall(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	p.shortfall += n
	p.mu.Unlock()
}

// AddPruned records trials the static triage proved benign and the
// campaign therefore skipped, attributed to the fault model the campaign
// ran under. Pruned trials still appear as Benign in campaign results;
// this counter is the audit trail distinguishing proved-benign-unrun
// from executed-and-observed-benign, and the per-model breakdown lets
// the differential re-injection suite assert triage soundness
// model-by-model instead of in aggregate.
func (p *PhaseMetrics) AddPruned(model string, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	p.pruned += n
	if p.prunedBy == nil {
		p.prunedBy = make(map[string]int64)
	}
	p.prunedBy[model] += n
	p.mu.Unlock()
}

// AddPrunedProof attributes already-counted pruned trials to the triage
// proof class that justified them ("dead-value", "range-masked",
// "dup-detected", ...). Complementary to AddPruned: AddPruned carries
// the per-model total, this carries the per-proof breakdown, so reports
// can show which analysis tier earned each skipped trial.
func (p *PhaseMetrics) AddPrunedProof(proof string, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	if p.prunedByProof == nil {
		p.prunedByProof = make(map[string]int64)
	}
	p.prunedByProof[proof] += n
	p.mu.Unlock()
}

// AddGoldenRun records one executed (non-memoized) golden run.
func (p *PhaseMetrics) AddGoldenRun() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.goldenRuns++
	p.mu.Unlock()
}

// AddCacheHit records one memoization hit (golden run or campaign).
func (p *PhaseMetrics) AddCacheHit() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cacheHits++
	p.mu.Unlock()
}

// AddCacheMiss records one memoization miss.
func (p *PhaseMetrics) AddCacheMiss() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cacheMisses++
	p.mu.Unlock()
}

// AddWall adds wall-clock time spent in the phase.
func (p *PhaseMetrics) AddWall(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.wall += d
	p.mu.Unlock()
}

// AddBusy adds worker execution time (summed across workers).
func (p *PhaseMetrics) AddBusy(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.busy += d
	p.mu.Unlock()
}

// ObserveWorkers records the worker count of one campaign; the phase keeps
// the maximum observed.
func (p *PhaseMetrics) ObserveWorkers(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if n > p.maxWorkers {
		p.maxWorkers = n
	}
	p.mu.Unlock()
}

// PhaseSnapshot is a consistent copy of one phase's counters.
type PhaseSnapshot struct {
	Name      string             `json:"name"`
	Trials    int64              `json:"trials"` // executed faulty-run trials
	Outcomes  [NumOutcomes]int64 `json:"outcomes"`
	Shortfall int64              `json:"shortfall"` // requested-but-undrawable trials
	Pruned    int64              `json:"pruned"`    // trials proved benign by static triage, not executed
	// PrunedByModel breaks Pruned down by fault-model name, and
	// PrunedByProof by the triage proof class that justified the skip
	// (absent when nothing was pruned).
	PrunedByModel map[string]int64 `json:"pruned_by_model,omitempty"`
	PrunedByProof map[string]int64 `json:"pruned_by_proof,omitempty"`
	GoldenRuns    int64            `json:"golden_runs"` // golden executions actually run (cache misses run once)
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	Wall          time.Duration    `json:"wall_ns"` // wall-clock time inside instrumented sections
	Busy          time.Duration    `json:"busy_ns"` // summed per-worker execution time
	MaxWorkers    int              `json:"max_workers"`
	Checkpoint    CheckpointStats  `json:"checkpoint"`
	// Instrs counts the instructions executed trials ran, per outcome:
	// each trial's DynInstrs less what checkpoints let it skip.
	Instrs [NumOutcomes]int64 `json:"instrs"`
}

// HitRate returns the cache hit fraction (0 when the phase saw no lookups).
func (s PhaseSnapshot) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Utilization returns Busy / (Wall x MaxWorkers): the fraction of the
// phase's worker-seconds spent executing rather than stalled on dispatch.
func (s PhaseSnapshot) Utilization() float64 {
	if s.Wall <= 0 || s.MaxWorkers <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Wall) * float64(s.MaxWorkers))
	if u > 1 {
		u = 1
	}
	return u
}

// Snapshot returns a copy of the phase counters.
func (p *PhaseMetrics) Snapshot() PhaseSnapshot {
	if p == nil {
		return PhaseSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var byModel, byProof map[string]int64
	var ckpt CheckpointStats
	ckpt.add(p.checkpoint)
	if len(p.prunedBy) > 0 {
		byModel = make(map[string]int64, len(p.prunedBy))
		for k, v := range p.prunedBy {
			byModel[k] = v
		}
	}
	if len(p.prunedByProof) > 0 {
		byProof = make(map[string]int64, len(p.prunedByProof))
		for k, v := range p.prunedByProof {
			byProof[k] = v
		}
	}
	return PhaseSnapshot{
		Name:          p.name,
		Trials:        p.trials,
		Outcomes:      p.outcomes,
		Shortfall:     p.shortfall,
		Pruned:        p.pruned,
		PrunedByModel: byModel,
		PrunedByProof: byProof,
		GoldenRuns:    p.goldenRuns,
		CacheHits:     p.cacheHits,
		CacheMisses:   p.cacheMisses,
		Wall:          p.wall,
		Busy:          p.busy,
		MaxWorkers:    p.maxWorkers,
		Checkpoint:    ckpt,
		Instrs:        p.instrs,
	}
}

// Snapshots returns every phase in first-use order.
func (m *Metrics) Snapshots() []PhaseSnapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	phases := make([]*PhaseMetrics, len(names))
	for i, n := range names {
		phases[i] = m.phases[n]
	}
	m.mu.Unlock()
	out := make([]PhaseSnapshot, len(phases))
	for i, p := range phases {
		out[i] = p.Snapshot()
	}
	return out
}

// Publish copies every phase's counters into an obs registry under
// "fault.phase.<name>.*" keys, making Metrics a feeder of the unified
// registry: manifests carry the per-phase accounting without a second
// schema, and benchdiff can diff phases across runs. Call it once, when
// the run is complete (counters are absolute values, not deltas).
func (m *Metrics) Publish(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	for _, s := range m.Snapshots() {
		prefix := "fault.phase." + s.Name + "."
		reg.Counter(prefix + "trials").Add(s.Trials)
		for o := Outcome(0); o < NumOutcomes; o++ {
			reg.Counter(prefix + "outcome." + o.String()).Add(s.Outcomes[o])
			reg.Counter(prefix + "instrs." + o.String()).Add(s.Instrs[o])
		}
		reg.Counter(prefix + "shortfall").Add(s.Shortfall)
		reg.Counter(prefix + "pruned").Add(s.Pruned)
		for model, n := range s.PrunedByModel {
			reg.Counter(prefix + "pruned.model." + model).Add(n)
		}
		for proof, n := range s.PrunedByProof {
			reg.Counter(prefix + "pruned.proof." + proof).Add(n)
		}
		reg.Counter(prefix + "golden_runs").Add(s.GoldenRuns)
		reg.Counter(prefix + "cache_hits").Add(s.CacheHits)
		reg.Counter(prefix + "cache_misses").Add(s.CacheMisses)
		reg.Counter(prefix + "wall_ns").Add(s.Wall.Nanoseconds())
		reg.Counter(prefix + "busy_ns").Add(s.Busy.Nanoseconds())
		reg.Gauge(prefix + "max_workers").SetMax(int64(s.MaxWorkers))
		reg.Counter(prefix + "checkpoint.captures").Add(s.Checkpoint.Captures)
		reg.Counter(prefix + "checkpoint.restores").Add(s.Checkpoint.Restores)
		reg.Counter(prefix + "checkpoint.skipped_instrs").Add(s.Checkpoint.SkippedInstrs)
		reg.Counter(prefix + "checkpoint.converged").Add(s.Checkpoint.Converged)
		reg.Counter(prefix + "checkpoint.converged_instrs").Add(s.Checkpoint.ConvergedInstrs)
		for reason, n := range s.Checkpoint.Fallbacks {
			reg.Counter(prefix + "checkpoint.fallbacks." + reason).Add(n)
		}
	}
}

// Render prints the per-phase metrics table (the -metrics CLI output).
func (m *Metrics) Render(w io.Writer) error {
	snaps := m.Snapshots()
	fmt.Fprintln(w, "Campaign-engine metrics (per phase)")
	if len(snaps) == 0 {
		fmt.Fprintln(w, "  (no campaigns recorded)")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Phase\tTrials\tSDC\tCrash\tHang\tDetected\tBenign\tPruned\tShortfall\tGoldenRuns\tCacheHit%\tWall\tWorkers\tUtil%")
	for _, s := range snaps {
		hit := "-"
		if s.CacheHits+s.CacheMisses > 0 {
			hit = fmt.Sprintf("%.1f%% (%d/%d)", 100*s.HitRate(), s.CacheHits, s.CacheHits+s.CacheMisses)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%.2fs\t%d\t%.0f%%\n",
			s.Name, s.Trials,
			s.Outcomes[OutcomeSDC], s.Outcomes[OutcomeCrash], s.Outcomes[OutcomeHang],
			s.Outcomes[OutcomeDetected], s.Outcomes[OutcomeBenign],
			s.Pruned, s.Shortfall, s.GoldenRuns, hit, s.Wall.Seconds(), s.MaxWorkers, 100*s.Utilization())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, s := range snaps {
		if len(s.PrunedByProof) > 0 {
			fmt.Fprintf(w, "pruned by proof (%s): %s\n", s.Name, countList(s.PrunedByProof))
		}
	}
	var ckpt CheckpointStats
	for _, s := range snaps {
		ckpt.add(s.Checkpoint)
	}
	if ckpt.Captures > 0 || len(ckpt.Fallbacks) > 0 {
		fmt.Fprintln(w, ckpt)
	}
	return nil
}
