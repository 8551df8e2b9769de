// Package fault is the repository's LLFI equivalent: it injects single-bit
// flips into the return values of randomly chosen dynamic instructions and
// classifies the outcome of each faulty execution against a golden run.
//
// The fault model follows the paper (§II-A): transient faults in processor
// computing components, modeled as one single-bit flip per run in the
// destination value of one dynamic instruction. Memory, control logic, and
// instruction-encoding faults are out of scope (assumed ECC/other
// protection), as are jumps to illegal addresses — but legal-but-wrong
// branches arise naturally when a flipped comparison feeds a branch.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Outcome classifies one fault-injection trial.
type Outcome uint8

// Trial outcomes. Benign means the program completed with output
// bit-identical to the golden run; SDC means it completed with different
// output; Detected means a duplication check caught the corruption.
const (
	OutcomeBenign Outcome = iota
	OutcomeSDC
	OutcomeCrash
	OutcomeHang
	OutcomeDetected
	NumOutcomes
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "benign"
	case OutcomeSDC:
		return "sdc"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	case OutcomeDetected:
		return "detected"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// HangFactor scales the golden run's dynamic instruction count into the
// hang budget for faulty runs.
const HangFactor = 20

// Golden is a fault-free reference execution of a module under one input.
type Golden struct {
	Output     []uint64
	OutputHash uint64 // FNV-1a 64 over Output, for the Classify fast path
	DynInstrs  int64
	Cycles     int64
	Profile    *interp.Profile
}

// RunGolden executes the module fault-free with profiling and returns the
// reference execution. It fails if the fault-free program does not run to
// completion (such inputs are filtered out per §III-A2).
func RunGolden(m *ir.Module, bind interp.Binding, cfg interp.Config) (*Golden, error) {
	prof := interp.NewProfile(m)
	r := interp.NewRunner(m, cfg)
	res := r.Run(bind, nil, prof)
	if res.Status != interp.StatusOK {
		return nil, fmt.Errorf("fault: golden run ended with %s (%s)", res.Status, res.Trap)
	}
	return &Golden{
		Output:     res.Output,
		OutputHash: res.OutputHash,
		DynInstrs:  res.DynInstrs,
		Cycles:     res.Cycles,
		Profile:    prof,
	}, nil
}

// faultyConfig derives the execution bounds for faulty runs from the
// golden run (a fault can lengthen execution; the hang budget caps it).
func faultyConfig(cfg interp.Config, g *Golden) interp.Config {
	cfg.MaxDynInstrs = g.DynInstrs*HangFactor + 10_000
	return cfg
}

// Classify compares a faulty run against the golden execution. Unequal
// output hashes prove unequal outputs, so the word compare — the hot part
// of every SDC trial — is skipped for the common corrupted-output case;
// equal hashes still get the exact compare, so a collision can never
// misclassify an SDC as benign.
func Classify(g *Golden, res interp.Result) Outcome {
	switch res.Status {
	case interp.StatusDetected:
		return OutcomeDetected
	case interp.StatusCrash:
		return OutcomeCrash
	case interp.StatusHang:
		return OutcomeHang
	}
	if res.OutputHash != g.OutputHash && res.OutputHash != 0 && g.OutputHash != 0 {
		return OutcomeSDC // hashes present and unequal: outputs provably differ
	}
	if len(res.Output) != len(g.Output) {
		return OutcomeSDC
	}
	for i, w := range g.Output {
		if res.Output[i] != w {
			return OutcomeSDC
		}
	}
	return OutcomeBenign
}

// Sampler draws injection sites. Program-level sites are uniform over all
// dynamic instances of injectable instructions (weighted by each static
// instruction's dynamic count in the golden run), matching LLFI's "random
// dynamic instruction" selection.
type Sampler struct {
	mod   *ir.Module
	g     *Golden
	ids   []int   // injectable static instruction IDs with count > 0
	cum   []int64 // cumulative dynamic counts over ids
	total int64
}

// NewSampler builds a sampler for m under the golden execution g.
// excludeDup restricts sites to original program instructions (used when
// characterizing the unprotected program).
func NewSampler(m *ir.Module, g *Golden, excludeDup bool) *Sampler {
	s := &Sampler{mod: m, g: g}
	for _, id := range m.InjectableIDs(excludeDup) {
		c := g.Profile.InstrCount[id]
		if c == 0 {
			continue
		}
		s.total += c
		s.ids = append(s.ids, id)
		s.cum = append(s.cum, s.total)
	}
	return s
}

// Total returns the number of injectable dynamic instruction instances.
func (s *Sampler) Total() int64 { return s.total }

// RandomSite draws one program-level injection site under the default
// (single-bit flip) model. ok is false when the program has no injectable
// dynamic instructions.
func (s *Sampler) RandomSite(rng *rand.Rand) (interp.Fault, bool) {
	return s.RandomSiteModel(DefaultModel(), rng)
}

// RandomSiteModel draws one program-level injection site and perturbs it
// with fault model m. The dynamic-instance draw is model-independent, so
// every model samples the same site stream for a fixed seed; only the
// effect differs.
func (s *Sampler) RandomSiteModel(m Model, rng *rand.Rand) (interp.Fault, bool) {
	if s.total == 0 {
		return interp.Fault{}, false
	}
	k := rng.Int63n(s.total)
	// Binary search the cumulative counts.
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	id := s.ids[lo]
	base := int64(0)
	if lo > 0 {
		base = s.cum[lo-1]
	}
	f := interp.Fault{InstrID: id, DynIndex: k - base}
	m.Perturb(s.mod.Instrs[id].Type.Bits(), rng).apply(&f)
	return f, true
}

// SiteFor draws an injection site targeting one static instruction under
// the default model, uniform over its dynamic instances. ok is false if
// the instruction never executed under this input or has no result.
func (s *Sampler) SiteFor(instrID int, rng *rand.Rand) (interp.Fault, bool) {
	return s.SiteForModel(DefaultModel(), instrID, rng)
}

// SiteForModel is SiteFor perturbed by fault model m.
func (s *Sampler) SiteForModel(m Model, instrID int, rng *rand.Rand) (interp.Fault, bool) {
	in := s.mod.Instrs[instrID]
	if !in.IsInjectable() {
		return interp.Fault{}, false
	}
	c := s.g.Profile.InstrCount[instrID]
	if c == 0 {
		return interp.Fault{}, false
	}
	f := interp.Fault{InstrID: instrID, DynIndex: rng.Int63n(c)}
	m.Perturb(in.Type.Bits(), rng).apply(&f)
	return f, true
}

// CampaignResult aggregates trial outcomes. Requested records how many
// trials the campaign was asked for and Shortfall how many of those could
// not be drawn even after bounded redraws (a program with no injectable
// dynamic instructions): Trials == Requested - Shortfall, so a loss of
// statistical power is visible instead of silent.
type CampaignResult struct {
	Counts    [NumOutcomes]int64
	Trials    int64
	Requested int64
	Shortfall int64
}

// Add accumulates one outcome.
func (c *CampaignResult) Add(o Outcome) {
	c.Counts[o]++
	c.Trials++
}

// Merge accumulates another result set.
func (c *CampaignResult) Merge(o CampaignResult) {
	for i := range c.Counts {
		c.Counts[i] += o.Counts[i]
	}
	c.Trials += o.Trials
	c.Requested += o.Requested
	c.Shortfall += o.Shortfall
}

// Rate returns the fraction of trials with outcome o (0 if no trials).
func (c *CampaignResult) Rate(o Outcome) float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Counts[o]) / float64(c.Trials)
}

// SDCCoverage returns detected / (detected + SDC): the fraction of
// corruptions mitigated by the protection. The second result is false when
// no trial produced either outcome (coverage undefined).
func (c *CampaignResult) SDCCoverage() (float64, bool) {
	d := c.Counts[OutcomeDetected]
	s := c.Counts[OutcomeSDC]
	if d+s == 0 {
		return 0, false
	}
	return float64(d) / float64(d+s), true
}

// TriagePolicy selects whether a campaign consults the static
// SDC-masking triage (package analysis) before executing trials.
type TriagePolicy uint8

const (
	// TriageAuto (the zero value, so campaigns prune by default) skips
	// fault sites the triage proves masked, counting them Benign without
	// running them. Soundness of the triage guarantees the campaign
	// result is bit-identical to an unpruned run at the same seed; the
	// differential test in this package enforces that by injection.
	TriageAuto TriagePolicy = iota
	// TriageOff executes every drawn site. Used by the soundness test
	// itself and available for audits.
	TriageOff
)

// Campaign runs fault-injection trials over a module with one input.
// Metrics, if non-nil, receives trial outcomes, wall/busy time, and
// worker-count observations (it never influences results).
type Campaign struct {
	Mod     *ir.Module
	Bind    interp.Binding
	Cfg     interp.Config
	Golden  *Golden
	Workers int // 0 = GOMAXPROCS
	// Model selects the fault model; nil means the paper's single-bit
	// flip (DefaultModel).
	Model   Model
	Triage  TriagePolicy
	Metrics *PhaseMetrics
	// Obs, if non-nil, receives a span per injection batch plus trial and
	// batch-latency registry metrics. Observational like Metrics.
	Obs *obs.Obs

	// noCheckpoints runs every trial from the start (test hook: campaign
	// tables must not depend on it).
	noCheckpoints bool
}

func (c *Campaign) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// model returns the campaign's fault model, defaulting to a single-bit
// flip when unset.
func (c *Campaign) model() Model {
	if c.Model != nil {
		return c.Model
	}
	return DefaultModel()
}

// runSites classifies the given fault sites under the campaign's model
// and returns one outcome per site (index-aligned), deterministic for
// fixed sites. Under TriageAuto it first consults the static triage:
// provably masked sites are counted Benign without execution (recorded
// in the per-model Pruned metric) and only the remainder is run. Pruning
// is gated on the model's fault class, so a proof is applied only where
// it is sound; the returned outcomes are identical to an unpruned run.
func (c *Campaign) runSites(sites []interp.Fault) []Outcome {
	return c.runSitesModel(c.model(), sites)
}

// RunSites classifies explicitly constructed fault sites (replay and
// differential tooling): one outcome per site, index-aligned,
// deterministic for fixed sites. Triage pruning follows the campaign's
// policy and model exactly as in Run.
func (c *Campaign) RunSites(sites []interp.Fault) []Outcome {
	return c.runSites(sites)
}

// runSitesModel is runSites with an explicit model (so helpers like
// RunMultiBit can run a non-default model without mutating the campaign).
func (c *Campaign) runSitesModel(m Model, sites []interp.Fault) []Outcome {
	if c.Triage != TriageAuto || len(sites) == 0 {
		return c.execSites(sites)
	}
	outcomes, kept, keptIdx := c.pruneSites(m, sites)
	if len(kept) > 0 {
		for j, o := range c.execSites(kept) {
			outcomes[keptIdx[j]] = o
		}
	}
	return outcomes
}

// pruneSites is the static half of runSitesModel under TriageAuto: it
// returns one outcome per site with every provably masked or detected
// site filled in (and counted as pruned), plus the sites that still
// need execution and their indices into sites. It runs nothing, so it
// does not need c.Golden.
func (c *Campaign) pruneSites(m Model, sites []interp.Fault) (outcomes []Outcome, kept []interp.Fault, keptIdx []int) {
	t := analysis.TriageFor(c.Mod)
	cl := m.Class()
	outcomes = make([]Outcome, len(sites))
	kept = make([]interp.Fault, 0, len(sites))
	keptIdx = make([]int, 0, len(sites))
	var byProof map[analysis.Proof]int64
	for i, s := range sites {
		switch v, pf := t.ClassifyFor(cl, s.InstrID, s.Bit, s.Mask); v {
		case analysis.VerdictProvablyMasked:
			outcomes[i] = OutcomeBenign
			if byProof == nil {
				byProof = make(map[analysis.Proof]int64)
			}
			byProof[pf]++
		case analysis.VerdictProvablyDetected:
			// The proof guarantees the armed detector fires before
			// any other observable; an executed trial would report
			// exactly this outcome.
			outcomes[i] = OutcomeDetected
			if byProof == nil {
				byProof = make(map[analysis.Proof]int64)
			}
			byProof[pf]++
		default:
			kept = append(kept, s)
			keptIdx = append(keptIdx, i)
		}
	}
	if pruned := int64(len(sites) - len(kept)); pruned > 0 {
		c.Metrics.AddPruned(m.Name(), pruned)
		for pf, n := range byProof {
			c.Metrics.AddPrunedProof(pf.String(), n)
		}
	}
	return outcomes, kept, keptIdx
}

// Golden checkpoints (interp.Checkpoints): every batch of at least
// minCheckpointBatch trials captures up to checkpointsPerSet golden
// states (one per four trials), held under checkpointBudget bytes and
// dropped with the batch, and resumes each trial from the last state
// before its injection point.
const (
	checkpointsPerSet  = 32
	minCheckpointBatch = 8
	checkpointBudget   = 4 << 20
)

// execSites executes fault sites in parallel and returns one outcome per
// site (index-aligned), deterministic for fixed sites. Trials resume from
// golden checkpoints when the batch captured them; a resumed trial's
// outcome is identical to a run from the start.
func (c *Campaign) execSites(sites []interp.Fault) []Outcome {
	t0 := time.Now()
	sp := c.Obs.Start("fi-batch")
	sp.SetAttrInt("sites", int64(len(sites)))
	defer sp.End()
	outcomes := make([]Outcome, len(sites))
	cfg := faultyConfig(c.Cfg, c.Golden)
	nw := c.workers()
	if nw > len(sites) {
		nw = len(sites)
	}
	if nw <= 1 {
		r := interp.NewRunner(c.Mod, cfg)
		ck := c.capture(sp, r, len(sites))
		var ts trialStats
		busy := time.Now()
		for i := range sites {
			outcomes[i] = ts.trial(r, ck, c.Golden, c.Bind, &sites[i])
		}
		c.Metrics.AddBusy(time.Since(busy))
		c.noteTrials(ts)
		c.finishSites(outcomes, 1, t0)
		return outcomes
	}
	// The queue is buffered to the full site count and filled before any
	// worker starts: dispatch never blocks, so workers drain at full speed
	// instead of rendezvousing with a producer once per trial.
	next := make(chan int, len(sites))
	for i := range sites {
		next <- i
	}
	close(next)
	// Pre-size per-worker runner state before spawning so allocation cost
	// is not interleaved with execution.
	runners := make([]*interp.Runner, nw)
	for w := range runners {
		runners[w] = interp.NewRunner(c.Mod, cfg)
	}
	// Workers share the checkpoints read-only.
	ck := c.capture(sp, runners[0], len(sites))
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(r *interp.Runner) {
			defer wg.Done()
			var busy time.Duration
			var ts trialStats
			for i := range next {
				t := time.Now()
				outcomes[i] = ts.trial(r, ck, c.Golden, c.Bind, &sites[i])
				busy += time.Since(t)
			}
			c.Metrics.AddBusy(busy)
			c.noteTrials(ts)
		}(runners[w])
	}
	wg.Wait()
	c.finishSites(outcomes, nw, t0)
	return outcomes
}

// capture records golden checkpoints for a batch of n trials on r, or
// returns nil, counting the fallback reason, when the batch runs every
// trial from the start: small batches (a capture would not pay for
// itself), spawning modules, legacy-engine configurations, and captures
// that do not reproduce the golden run.
func (c *Campaign) capture(batch *obs.Span, r *interp.Runner, n int) *interp.Checkpoints {
	if c.noCheckpoints {
		return nil
	}
	var ck *interp.Checkpoints
	reason := "small_batch"
	if n >= minCheckpointBatch {
		sp := batch.Child("fi-capture")
		var err error
		k := int64(min(checkpointsPerSet, n/4))
		ck, err = r.Capture(c.Bind, c.Golden.DynInstrs/(k+1), checkpointBudget)
		switch {
		case errors.Is(err, interp.ErrCaptureSpawn):
			reason = "spawn"
		case err != nil:
			reason = "legacy"
		default:
			reason = ""
			c.Obs.Counter("fault.checkpoint.captures").Inc()
			c.Metrics.AddCheckpoint(CheckpointStats{Captures: 1})
			if res := ck.Result(); res.DynInstrs != c.Golden.DynInstrs || res.OutputHash != c.Golden.OutputHash {
				reason, ck = "capture_mismatch", nil
			}
		}
		if reason != "" {
			sp.SetAttr("fallback", reason)
		}
		sp.End()
	}
	if reason != "" {
		c.Obs.Counter("fault.checkpoint.fallbacks." + reason).Inc()
		c.Metrics.AddCheckpoint(CheckpointStats{Fallbacks: map[string]int64{reason: 1}})
	}
	return ck
}

// trialStats counts one worker's trials: checkpoint restores and the
// golden prefix they skipped, trials that converged to a golden
// checkpoint and the suffix they skipped, and the instructions the
// trials executed, per outcome.
type trialStats struct {
	restores, skipped          int64
	converged, convergedInstrs int64
	instrs                     [NumOutcomes]int64
}

// trial executes and classifies one trial: resumed from ck when the batch
// captured checkpoints, from the start otherwise.
func (u *trialStats) trial(r *interp.Runner, ck *interp.Checkpoints, g *Golden, bind interp.Binding, f *interp.Fault) Outcome {
	// Scratch output: Classify consumes Output before the runner's next
	// run reuses the buffer, so the per-trial copy is waste.
	var res interp.Result
	var skip interp.Skip
	if ck == nil {
		res = r.RunScratch(bind, f, nil)
	} else {
		res, skip = r.Resume(ck, f)
	}
	if skip.Prefix > 0 {
		u.restores++
		u.skipped += skip.Prefix
	}
	if skip.Suffix > 0 {
		u.converged++
		u.convergedInstrs += skip.Suffix
	}
	o := Classify(g, res)
	u.instrs[o] += res.DynInstrs - skip.Total()
	return o
}

// noteTrials folds one worker's trial counts into the campaign metrics.
func (c *Campaign) noteTrials(u trialStats) {
	for o, n := range u.instrs {
		if n > 0 {
			c.Obs.Counter("fault.instrs." + Outcome(o).String()).Add(n)
		}
	}
	c.Metrics.AddInstrs(u.instrs)
	if u.restores > 0 {
		c.Obs.Counter("fault.checkpoint.restores").Add(u.restores)
		c.Obs.Counter("fault.checkpoint.skipped_instrs").Add(u.skipped)
	}
	if u.converged > 0 {
		c.Obs.Counter("fault.checkpoint.converged").Add(u.converged)
		c.Obs.Counter("fault.checkpoint.converged_instrs").Add(u.convergedInstrs)
	}
	if u.restores > 0 || u.converged > 0 {
		c.Metrics.AddCheckpoint(CheckpointStats{Restores: u.restores, SkippedInstrs: u.skipped,
			Converged: u.converged, ConvergedInstrs: u.convergedInstrs})
	}
}

// finishSites folds one runSites batch into the campaign metrics.
func (c *Campaign) finishSites(outcomes []Outcome, nw int, t0 time.Time) {
	wall := time.Since(t0)
	c.Obs.Counter("fault.trials").Add(int64(len(outcomes)))
	c.Obs.Counter("fault.model." + c.model().Name() + ".trials").Add(int64(len(outcomes)))
	c.Obs.Histogram("fault.batch_wall_ns").Observe(wall.Nanoseconds())
	if c.Metrics == nil {
		return
	}
	c.Metrics.AddOutcomes(outcomes)
	c.Metrics.ObserveWorkers(nw)
	c.Metrics.AddWall(wall)
}

// siteRetries bounds redraws for a failed site draw before the trial is
// counted as shortfall.
const siteRetries = 8

// sampleSites draws n sites from a fresh RNG seeded with seed, redrawing
// each failed draw up to siteRetries times, and returns the sites plus the
// number of trials that could not be drawn.
func sampleSites(n int, seed int64, draw func(*rand.Rand) (interp.Fault, bool)) ([]interp.Fault, int64) {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]interp.Fault, 0, n)
	for i := 0; i < n; i++ {
		site, ok := draw(rng)
		for retry := 0; !ok && retry < siteRetries; retry++ {
			site, ok = draw(rng)
		}
		if ok {
			sites = append(sites, site)
		}
	}
	return sites, int64(n - len(sites))
}

// Run performs n program-level trials with sites drawn from seed and
// returns the aggregated outcome counts. Failed site draws are retried up
// to a bound; any remaining shortfall is recorded in the result rather
// than silently shrinking the sample. The result is deterministic for a
// fixed (module, input, n, seed) regardless of worker count.
func (c *Campaign) Run(n int, seed int64) CampaignResult {
	m := c.model()
	sampler := NewSampler(c.Mod, c.Golden, false)
	sites, shortfall := sampleSites(n, seed, func(rng *rand.Rand) (interp.Fault, bool) {
		return sampler.RandomSiteModel(m, rng)
	})
	res := CampaignResult{Requested: int64(n), Shortfall: shortfall}
	c.Metrics.AddShortfall(shortfall)
	for _, o := range c.runSites(sites) {
		res.Add(o)
	}
	return res
}

// InstrStats is the per-instruction fault-injection measurement the SID
// cost/benefit model consumes.
type InstrStats struct {
	InstrID  int
	Executed bool // the instruction ran at least once under this input
	Trials   int64
	SDC      int64
	Crash    int64
	Hang     int64
	Detected int64
	Benign   int64
}

// SDCProb returns the measured probability that a fault in this
// instruction leads to an SDC.
func (s InstrStats) SDCProb() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.SDC) / float64(s.Trials)
}

// PerInstruction runs k trials against every injectable original-program
// instruction (the per-instruction FI step of SID preparation) and returns
// stats indexed by static instruction ID. Instructions that never execute
// under this input get Executed=false and zero trials.
func (c *Campaign) PerInstruction(k int, seed int64) []InstrStats {
	m := c.model()
	rng := rand.New(rand.NewSource(seed))
	sampler := NewSampler(c.Mod, c.Golden, true)

	stats := make([]InstrStats, c.Mod.NumInstrs())
	var sites []interp.Fault
	var owner []int // instruction ID per site
	for _, in := range c.Mod.Instrs {
		stats[in.ID].InstrID = in.ID
		if !in.IsInjectable() || in.Dup {
			continue
		}
		if c.Golden.Profile.InstrCount[in.ID] == 0 {
			continue
		}
		stats[in.ID].Executed = true
		for t := 0; t < k; t++ {
			site, ok := sampler.SiteForModel(m, in.ID, rng)
			if !ok {
				break
			}
			sites = append(sites, site)
			owner = append(owner, in.ID)
		}
	}
	outcomes := c.runSites(sites)
	for i, o := range outcomes {
		st := &stats[owner[i]]
		st.Trials++
		switch o {
		case OutcomeSDC:
			st.SDC++
		case OutcomeCrash:
			st.Crash++
		case OutcomeHang:
			st.Hang++
		case OutcomeDetected:
			st.Detected++
		default:
			st.Benign++
		}
	}
	return stats
}

// RunMultiBit is Run under the k-distinct-bit-flip model KBit(k); it is
// the registry-backed replacement for the old bespoke multi-bit path.
func (c *Campaign) RunMultiBit(n int, seed int64, k int) CampaignResult {
	cc := *c
	cc.Model = KBit(k)
	return cc.Run(n, seed)
}
