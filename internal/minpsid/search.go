package minpsid

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sid"
)

// Target bundles everything MINPSID needs to know about a program under
// protection: its module, its input space, and the binder mapping inputs
// to concrete executions.
type Target struct {
	Mod  *ir.Module
	Spec *inputgen.Spec
	Bind func(inputgen.Input) interp.Binding
	Exec interp.Config
}

// Config tunes the MINPSID pipeline.
type Config struct {
	// Rule is the incubative criterion; zero value selects DefaultRule.
	Rule Rule
	// FaultsPerInstr is the per-instruction FI trial count (paper: 100).
	FaultsPerInstr int
	// MaxInputs caps the number of FI-measured searched inputs.
	MaxInputs int
	// Patience stops the search after this many consecutive measured
	// inputs that reveal no new incubative instruction.
	Patience int
	// PopSize is the GA population size.
	PopSize int
	// MaxGenerations caps GA generations per input search.
	MaxGenerations int
	// MutationRate and CrossoverRate follow the paper (0.4 / 0.05).
	MutationRate  float64
	CrossoverRate float64
	// Seed drives all stochastic choices.
	Seed int64
	// Workers bounds FI parallelism (0 = GOMAXPROCS).
	Workers int
	// Strategy selects the search engine (default StrategyGA).
	Strategy Strategy
	// Cache memoizes golden runs across fitness evaluations and FI
	// measurements. Left nil, withDefaults installs a fresh bounded cache;
	// set NoCache to run without memoization. Results are bit-identical
	// either way.
	Cache   *fault.Cache
	NoCache bool
	// Metrics, if non-nil, receives per-phase campaign accounting
	// (search-engine and incubative-fi phases).
	Metrics *fault.Metrics
	// Obs, if non-nil, receives a span per accepted input and per GA
	// generation plus search-progress registry counters. Observational
	// like Cache and Metrics: results are bit-identical either way.
	Obs *obs.Obs
}

// Strategy selects the input-search engine.
type Strategy uint8

// Search strategies. StrategyGA is the paper's genetic algorithm;
// StrategyRandom is the blind baseline of Fig. 7; StrategyAnneal is a
// simulated-annealing explorer over the same Eq.-3 fitness, one of the
// "more efficient fuzzing algorithms and heuristics" the paper's future
// work (§X) calls for.
const (
	StrategyGA Strategy = iota
	StrategyRandom
	StrategyAnneal
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyAnneal:
		return "anneal"
	default:
		return "ga"
	}
}

// Canonical returns the config with every search-shaping parameter
// normalized to its default when unset, without installing a cache. Two
// configs with equal Canonical parameter fields run identical searches,
// so content-addressed pipelines key search artifacts on them.
func (c Config) Canonical() Config {
	out := c
	out.Cache = nil
	out.NoCache = false
	out.Metrics = nil
	out.Obs = nil
	out.Workers = 0
	if out.Rule == (Rule{}) {
		out.Rule = DefaultRule()
	}
	if out.FaultsPerInstr <= 0 {
		out.FaultsPerInstr = 100
	}
	if out.MaxInputs <= 0 {
		out.MaxInputs = 20
	}
	if out.Patience <= 0 {
		out.Patience = 3
	}
	if out.PopSize <= 0 {
		out.PopSize = 8
	}
	if out.MaxGenerations <= 0 {
		out.MaxGenerations = 6
	}
	if out.MutationRate <= 0 {
		out.MutationRate = 0.4
	}
	if out.CrossoverRate <= 0 {
		out.CrossoverRate = 0.05
	}
	return out
}

func (c Config) withDefaults() Config {
	if c.Rule == (Rule{}) {
		c.Rule = DefaultRule()
	}
	if c.FaultsPerInstr <= 0 {
		c.FaultsPerInstr = 100
	}
	if c.MaxInputs <= 0 {
		c.MaxInputs = 20
	}
	if c.Patience <= 0 {
		c.Patience = 3
	}
	if c.PopSize <= 0 {
		c.PopSize = 8
	}
	if c.MaxGenerations <= 0 {
		c.MaxGenerations = 6
	}
	if c.MutationRate <= 0 {
		c.MutationRate = 0.4
	}
	if c.CrossoverRate <= 0 {
		c.CrossoverRate = 0.05
	}
	if c.Cache == nil && !c.NoCache {
		c.Cache = fault.NewCache(0)
	}
	return c
}

// workers returns the fitness-evaluation worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TracePoint records the search state after measuring one input (for the
// Fig. 7 efficiency curves).
type TracePoint struct {
	InputIndex int     // 1-based count of FI-measured searched inputs
	Incubative int     // cumulative incubative instructions found
	Fitness    float64 // fitness score of the accepted input
}

// SearchResult is the outcome of the incubative-instruction search.
type SearchResult struct {
	Incubative   []int            // incubative instruction IDs, ascending
	MaxBenefit   []float64        // per-instruction max benefit over all measured inputs
	Trace        []TracePoint     // per measured input
	Inputs       []inputgen.Input // the accepted, FI-measured inputs
	FitnessEvals int              // golden runs spent evaluating GA fitness

	// Wall-clock split of the search (for Fig. 8).
	EngineTime time.Duration // input generation + fitness evaluation
	FITime     time.Duration // per-instruction FI on accepted inputs
}

// engine carries the search state.
type engine struct {
	t    Target
	cfg  Config
	rng  *rand.Rand
	cand []int // candidate instruction IDs (duplicable)

	cache    *fault.Cache
	pmEngine *fault.PhaseMetrics // search-engine phase (fitness golden runs)
	pmFI     *fault.PhaseMetrics // incubative-fi phase (per-instruction FI)
	obs      *obs.Obs            // scoped to the search; nil disables
	span     *obs.Span           // current search-input span (GA generations nest here)

	refMeas *sid.Measurement
	history [][]int64 // indexed CFG lists of all measured inputs (ref first)
	seen    map[string]bool

	incubative map[int]bool
	maxBenefit []float64

	res SearchResult
}

// Search runs the input-search phase of MINPSID (steps 3-7 of Fig. 4)
// given the reference-input measurement.
func Search(t Target, cfg Config, refInput inputgen.Input, refMeas *sid.Measurement) *SearchResult {
	cfg = cfg.withDefaults()
	e := &engine{
		t:          t,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		cache:      cfg.Cache,
		pmEngine:   cfg.Metrics.Phase(fault.PhaseSearchEngine),
		pmFI:       cfg.Metrics.Phase(fault.PhaseIncubativeFI),
		obs:        cfg.Obs,
		refMeas:    refMeas,
		seen:       map[string]bool{refInput.Key(): true},
		incubative: make(map[int]bool),
		maxBenefit: append([]float64(nil), refMeas.Benefit...),
	}
	for _, in := range t.Mod.Instrs {
		if sid.Duplicable(t.Mod, in) {
			e.cand = append(e.cand, in.ID)
		}
	}
	refList := profile.IndexedListOf(refMeas.Golden.Profile)
	e.history = append(e.history, refList)

	noProgress := 0
	for len(e.res.Inputs) < cfg.MaxInputs && noProgress < cfg.Patience {
		e.span = e.obs.Start("search-input")
		t0 := time.Now()
		in, golden, fitness, ok := e.nextInput()
		e.res.EngineTime += time.Since(t0)
		if !ok {
			e.span.End()
			break
		}
		before := len(e.incubative)
		t1 := time.Now()
		e.measureAndAbsorb(in, golden, fitness)
		e.res.FITime += time.Since(t1)
		if len(e.incubative) == before {
			noProgress++
		} else {
			noProgress = 0
		}
		e.span.SetAttrInt("incubative", int64(len(e.incubative)))
		e.span.End()
	}

	e.res.MaxBenefit = e.maxBenefit
	e.res.Incubative = sortedKeys(e.incubative)
	return &e.res
}

// nextInput produces the next input to FI-measure, via the configured
// strategy.
func (e *engine) nextInput() (inputgen.Input, *fault.Golden, float64, bool) {
	switch e.cfg.Strategy {
	case StrategyRandom:
		return e.nextRandom()
	case StrategyAnneal:
		return e.nextAnneal()
	default:
		return e.nextGA()
	}
}

// candidate is a GA population member.
type gaCandidate struct {
	in      inputgen.Input
	golden  *fault.Golden
	list    []int64
	fitness float64
}

// evaluateOne runs the candidate's golden execution (memoized when the
// engine has a cache) and computes its Eq.-3 fitness. ok is false for
// inadmissible inputs (crash/hang/over-budget). It touches no engine
// state and consumes no RNG, so batches of evaluations can run on any
// number of workers without changing any result.
func (e *engine) evaluateOne(in inputgen.Input) (gaCandidate, bool) {
	if err := e.t.Spec.Validate(in); err != nil {
		return gaCandidate{}, false
	}
	golden, err := e.cache.Golden(e.t.Mod, e.t.Bind(in), e.t.Exec, e.pmEngine)
	if err != nil {
		return gaCandidate{}, false
	}
	list := profile.IndexedListOf(golden.Profile)
	return gaCandidate{
		in:      in,
		golden:  golden,
		list:    list,
		fitness: profile.AvgDistance(list, e.history),
	}, true
}

// evaluate is the sequential entry point (annealing walks, whose next
// proposal depends on the previous verdict, cannot batch).
func (e *engine) evaluate(in inputgen.Input) (gaCandidate, bool) {
	c, ok := e.evaluateOne(in)
	if ok {
		e.res.FitnessEvals++
		e.obs.Counter("minpsid.fitness_evals").Inc()
	}
	return c, ok
}

// evalResult pairs one batch candidate with its admissibility.
type evalResult struct {
	cand gaCandidate
	ok   bool
}

// evaluateBatch evaluates a batch of inputs across the engine's worker
// pool and returns results index-aligned with ins. The engine history is
// read-only during the batch and evaluateOne consumes no RNG, so the
// output is bit-identical for any worker count.
func (e *engine) evaluateBatch(ins []inputgen.Input) []evalResult {
	out := make([]evalResult, len(ins))
	nw := e.cfg.workers()
	if nw > len(ins) {
		nw = len(ins)
	}
	if nw <= 1 {
		for i, in := range ins {
			out[i].cand, out[i].ok = e.evaluateOne(in)
		}
	} else {
		next := make(chan int, len(ins))
		for i := range ins {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					out[i].cand, out[i].ok = e.evaluateOne(ins[i])
				}
			}()
		}
		wg.Wait()
	}
	// Fold accounting in deterministic (input) order.
	for _, r := range out {
		if r.ok {
			e.res.FitnessEvals++
			e.obs.Counter("minpsid.fitness_evals").Inc()
		}
	}
	return out
}

// nextGA runs one GA search for the input with maximal weighted-CFG
// distance from history (§V-B2). Each generation's proposals are drawn
// sequentially from the engine RNG (preserving the exact draw stream of a
// one-at-a-time implementation) and then fitness-evaluated as one
// parallel batch.
func (e *engine) nextGA() (inputgen.Input, *fault.Golden, float64, bool) {
	pop := e.seedPopulation()
	if len(pop) == 0 {
		return inputgen.Input{}, nil, 0, false
	}
	best := bestOf(pop)
	for gen := 0; gen < e.cfg.MaxGenerations; gen++ {
		gsp := e.obs.At(e.span).Start("ga-generation")
		e.obs.Counter("minpsid.generations").Inc()
		var proposals []inputgen.Input
		for _, c := range pop {
			if e.rng.Float64() < e.cfg.MutationRate {
				proposals = append(proposals, e.t.Spec.Mutate(c.in, e.rng))
			}
		}
		if len(pop) >= 2 && e.rng.Float64() < e.cfg.CrossoverRate {
			a := pop[e.rng.Intn(len(pop))]
			b := pop[e.rng.Intn(len(pop))]
			ca, cb := e.t.Spec.Crossover(a.in, b.in, e.rng)
			proposals = append(proposals, ca, cb)
		}
		var offspring []gaCandidate
		for _, r := range e.evaluateBatch(proposals) {
			if r.ok {
				offspring = append(offspring, r.cand)
			}
		}
		pop = selectTop(append(pop, offspring...), e.cfg.PopSize)
		newBest := bestOf(pop)
		gsp.SetAttrInt("proposals", int64(len(proposals)))
		gsp.End()
		if newBest.fitness <= best.fitness {
			break // fitness no longer improves: end this GA search
		}
		best = newBest
	}
	// Prefer the fittest input not yet measured.
	ordered := selectTop(pop, len(pop))
	for _, c := range ordered {
		if !e.seen[c.in.Key()] {
			return c.in, c.golden, c.fitness, true
		}
	}
	return inputgen.Input{}, nil, 0, false
}

// seedPopulation draws random admissible inputs, evaluating each draw
// round as a parallel batch. The RNG consumption and the accepted
// population are identical to a sequential draw-then-evaluate loop.
func (e *engine) seedPopulation() []gaCandidate {
	var pop []gaCandidate
	budget := e.cfg.PopSize * 10
	for tries := 0; len(pop) < e.cfg.PopSize && tries < budget; {
		batch := e.cfg.PopSize - len(pop)
		if batch > budget-tries {
			batch = budget - tries
		}
		ins := make([]inputgen.Input, batch)
		for i := range ins {
			ins[i] = e.t.Spec.Random(e.rng)
		}
		tries += batch
		for _, r := range e.evaluateBatch(ins) {
			if r.ok && len(pop) < e.cfg.PopSize {
				pop = append(pop, r.cand)
			}
		}
	}
	return pop
}

// nextAnneal runs a simulated-annealing walk over the input space: it
// starts from a random admissible input and proposes mutations, accepting
// improvements always and regressions with probability exp(delta/T) under
// a geometric cooling schedule. The proposal budget mirrors the GA's
// (PopSize x MaxGenerations evaluations).
func (e *engine) nextAnneal() (inputgen.Input, *fault.Golden, float64, bool) {
	cur, ok := e.seedOne()
	if !ok {
		return inputgen.Input{}, nil, 0, false
	}
	best := cur
	budget := e.cfg.PopSize * e.cfg.MaxGenerations
	if budget < 4 {
		budget = 4
	}
	// Initial temperature scaled to the starting fitness so acceptance
	// probabilities are meaningful regardless of CFG magnitudes.
	temp := cur.fitness*0.5 + 1
	for i := 0; i < budget; i++ {
		prop, ok := e.evaluate(e.t.Spec.Mutate(cur.in, e.rng))
		if !ok {
			continue
		}
		delta := prop.fitness - cur.fitness
		if delta >= 0 || e.rng.Float64() < annealAccept(delta, temp) {
			cur = prop
		}
		if cur.fitness > best.fitness {
			best = cur
		}
		temp *= 0.85
	}
	if !e.seen[best.in.Key()] {
		return best.in, best.golden, best.fitness, true
	}
	if !e.seen[cur.in.Key()] {
		return cur.in, cur.golden, cur.fitness, true
	}
	return inputgen.Input{}, nil, 0, false
}

func annealAccept(delta, temp float64) float64 {
	if temp <= 0 {
		return 0
	}
	return math.Exp(delta / temp)
}

// seedOne draws one random admissible evaluated input.
func (e *engine) seedOne() (gaCandidate, bool) {
	for tries := 0; tries < 50; tries++ {
		if c, ok := e.evaluate(e.t.Spec.Random(e.rng)); ok {
			return c, true
		}
	}
	return gaCandidate{}, false
}

// nextRandom draws the next unmeasured random admissible input (the
// Fig. 7 baseline searcher: no fitness function, blind search).
func (e *engine) nextRandom() (inputgen.Input, *fault.Golden, float64, bool) {
	for tries := 0; tries < 100; tries++ {
		in := e.t.Spec.Random(e.rng)
		if e.seen[in.Key()] {
			continue
		}
		golden, err := e.cache.Golden(e.t.Mod, e.t.Bind(in), e.t.Exec, e.pmEngine)
		if err != nil {
			continue
		}
		return in, golden, 0, true
	}
	return inputgen.Input{}, nil, 0, false
}

// measureAndAbsorb runs the expensive per-instruction FI on the accepted
// input, updates the incubative set and max benefits, and appends the
// input to the search history.
func (e *engine) measureAndAbsorb(in inputgen.Input, golden *fault.Golden, fitness float64) {
	bind := e.t.Bind(in)
	e.obs.Counter("minpsid.inputs_measured").Inc()
	meas, err := sid.MeasureWithGolden(e.t.Mod, bind, sid.Config{
		Exec:           e.t.Exec,
		FaultsPerInstr: e.cfg.FaultsPerInstr,
		Seed:           e.cfg.Seed + int64(len(e.res.Inputs)) + 1,
		Workers:        e.cfg.Workers,
		Cache:          e.cache,
		Metrics:        e.pmFI,
		Obs:            e.obs.At(e.span),
	}, golden)
	if err != nil {
		return // cannot happen: golden already validated
	}

	for _, id := range e.cfg.Rule.Identify(e.refMeas.Benefit, meas.Benefit, e.cand) {
		e.incubative[id] = true
	}
	for id, b := range meas.Benefit {
		if b > e.maxBenefit[id] {
			e.maxBenefit[id] = b
		}
	}

	e.seen[in.Key()] = true
	e.history = append(e.history, profile.IndexedListOf(golden.Profile))
	e.res.Inputs = append(e.res.Inputs, in)
	e.res.Trace = append(e.res.Trace, TracePoint{
		InputIndex: len(e.res.Inputs),
		Incubative: len(e.incubative),
		Fitness:    fitness,
	})
}

func bestOf(pop []gaCandidate) gaCandidate {
	best := pop[0]
	for _, c := range pop[1:] {
		if c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

// selectTop returns the n fittest candidates (stable, descending fitness).
func selectTop(pop []gaCandidate, n int) []gaCandidate {
	out := append([]gaCandidate(nil), pop...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].fitness > out[j-1].fitness; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
