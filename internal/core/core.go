// Package core is the high-level API of the MINPSID reproduction: it ties
// the MiniC compiler, the IR interpreter, the fault injector, baseline
// selective instruction duplication, and the MINPSID input-search pipeline
// into a small set of types a downstream user can drive directly.
//
// Typical use:
//
//	prog, _ := core.FromBenchmark("kmeans")
//	prot, _ := prog.Protect(core.TechniqueMINPSID, 0.5, core.QuickOptions())
//	cov, _ := prot.EvaluateCoverage(prog.RandomInput(rng), 1000, 1)
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/minpsid"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/pipeline"
	"repro/internal/sid"
)

// Technique selects the protection scheme.
type Technique uint8

// The available protection techniques.
const (
	TechniqueSID     Technique = iota // baseline: reference input only
	TechniqueMINPSID                  // input-search hardened
)

// String returns the technique name.
func (t Technique) String() string {
	if t == TechniqueMINPSID {
		return "minpsid"
	}
	return "sid"
}

// ParseTechnique resolves a technique by name ("sid" or "minpsid").
func ParseTechnique(s string) (Technique, error) {
	switch s {
	case "sid", "baseline":
		return TechniqueSID, nil
	case "minpsid":
		return TechniqueMINPSID, nil
	default:
		return 0, fmt.Errorf("core: unknown technique %q (want sid or minpsid)", s)
	}
}

// Program is a compiled program together with its input space.
type Program struct {
	Name      string
	Module    *ir.Module
	Spec      *inputgen.Spec
	Reference inputgen.Input
	Bind      func(inputgen.Input) interp.Binding
	Exec      interp.Config
}

// FromBenchmark loads one of the built-in paper benchmarks.
func FromBenchmark(name string) (*Program, error) {
	b, ok := benchprog.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	m, err := b.Module()
	if err != nil {
		return nil, err
	}
	return &Program{
		Name:      b.Name,
		Module:    m,
		Spec:      b.Spec,
		Reference: b.Reference,
		Bind:      b.Bind,
		Exec:      b.ExecConfig(),
	}, nil
}

// BenchmarkNames lists the built-in benchmarks.
func BenchmarkNames() []string {
	var names []string
	for _, b := range benchprog.All() {
		names = append(names, b.Name)
	}
	return names
}

// CompileMiniC builds a Program from MiniC source. The caller supplies the
// input space, the reference input used for protection, and the binder;
// optimize selects whether the standard pass pipeline runs.
func CompileMiniC(name, src string, spec *inputgen.Spec, reference inputgen.Input, bind func(inputgen.Input) interp.Binding, optimize bool) (*Program, error) {
	m, err := minicc.Compile(name, src)
	if err != nil {
		return nil, err
	}
	if optimize {
		if err := passes.Optimize(m); err != nil {
			return nil, err
		}
	}
	if err := spec.Validate(reference); err != nil {
		return nil, fmt.Errorf("core: reference input: %w", err)
	}
	return &Program{
		Name:      name,
		Module:    m,
		Spec:      spec,
		Reference: reference,
		Bind:      bind,
		Exec:      interp.Config{},
	}, nil
}

// RandomInput draws a random input from the program's input space.
func (p *Program) RandomInput(rng *rand.Rand) inputgen.Input {
	return p.Spec.Random(rng)
}

// Run executes the program fault-free on one input.
func (p *Program) Run(in inputgen.Input) interp.Result {
	r := interp.NewRunner(p.Module, p.Exec)
	return r.Run(p.Bind(in), nil, nil)
}

// Options tunes protection.
type Options struct {
	// FaultsPerInstr is the per-instruction FI budget (paper: 100).
	FaultsPerInstr int
	// Search configures the MINPSID input search (ignored for SID).
	SearchMaxInputs int
	SearchPatience  int
	PopSize         int
	MaxGenerations  int
	// SearchStrategy selects the MINPSID input-search engine (GA by
	// default; random and simulated-annealing variants are available).
	SearchStrategy minpsid.Strategy
	// FaultModel names the injected fault model and Detector the
	// detector portfolio ("dup,inv,cfgsig" or "all"); empty values mean
	// the paper's bitflip + duplication defaults, which reproduce the
	// original pipeline byte-for-byte.
	FaultModel string
	Detector   string
	// Incremental switches the reference measurement to the sectional
	// (per-section) artifact path: a later edit to the program re-runs
	// only the sections it touched. Off by default; the default path
	// reproduces the paper byte-for-byte.
	Incremental bool
	// Seed drives all stochastic steps; Workers bounds FI parallelism.
	Seed    int64
	Workers int
	// Cache, if non-nil, memoizes golden runs and campaigns across the
	// protection pipeline; Metrics, if non-nil, collects per-phase campaign
	// accounting. Both are observational: results are bit-identical with or
	// without them.
	Cache   *fault.Cache
	Metrics *fault.Metrics
	// Pipe, if non-nil, supplies the task scheduler and artifact store the
	// protection graph runs on, sharing measurement/search/protection nodes
	// with other work on the same pipeline (and across processes when its
	// disk tier is enabled). Nil runs on a private in-memory pipeline.
	Pipe *pipeline.Pipeline
	// Obs, if non-nil, attaches unified tracing/metrics to the pipeline
	// (and through it the campaign engine). Observational like Cache and
	// Metrics.
	Obs *obs.Obs
}

// DefaultOptions returns paper-scale settings.
func DefaultOptions() Options {
	return Options{FaultsPerInstr: 100, SearchMaxInputs: 20, SearchPatience: 3, PopSize: 8, MaxGenerations: 6, Seed: 1}
}

// QuickOptions returns reduced settings for interactive experimentation.
func QuickOptions() Options {
	return Options{FaultsPerInstr: 15, SearchMaxInputs: 5, SearchPatience: 2, PopSize: 5, MaxGenerations: 3, Seed: 1}
}

func (o Options) searchConfig() minpsid.Config {
	return minpsid.Config{
		FaultsPerInstr: o.FaultsPerInstr,
		MaxInputs:      o.SearchMaxInputs,
		Patience:       o.SearchPatience,
		PopSize:        o.PopSize,
		MaxGenerations: o.MaxGenerations,
		Strategy:       o.SearchStrategy,
		Seed:           o.Seed,
		Workers:        o.Workers,
		Cache:          o.Cache,
		Metrics:        o.Metrics,
	}
}

// Protection is a protected program.
type Protection struct {
	Program   *Program
	Technique Technique
	Level     float64
	Module    *ir.Module // the protected binary
	// Chosen lists the selected instruction IDs (original module numbering).
	Chosen []int
	// Detectors names the detector protecting each chosen site (parallel
	// to Chosen); nil means duplication everywhere.
	Detectors []string
	// FaultModel is the fault model the protection was tuned for and the
	// model its evaluations inject ("" = single-bit flip).
	FaultModel string
	// ExpectedCoverage is the technique's own coverage estimate.
	ExpectedCoverage float64
	// Incubative lists incubative instruction IDs (MINPSID only).
	Incubative []int
	// Timing is the one-time analysis cost breakdown (MINPSID only).
	Timing minpsid.Timing
}

// Protect applies the chosen technique at the given protection level.
// The protection runs as a task graph — reference measurement, optional
// input search, selection + duplication — so equal work is deduplicated
// against anything else scheduled on Options.Pipe. The graph is
// value-equivalent to minpsid.Apply / sid.Apply on the same settings.
func (p *Program) Protect(tech Technique, level float64, opts Options) (*Protection, error) {
	tgt := minpsid.Target{Mod: p.Module, Spec: p.Spec, Bind: p.Bind, Exec: p.Exec}
	env := pipeline.Env{Cache: opts.Cache, Metrics: opts.Metrics, Workers: opts.Workers}
	pipe := opts.Pipe
	if pipe == nil {
		pipe = pipeline.NewMem(opts.Workers)
	}
	if opts.Obs != nil {
		pipe.SetObs(opts.Obs)
	}

	mt := &pipeline.MeasureTask{Target: tgt, Input: p.Reference,
		FaultsPerInstr: opts.FaultsPerInstr, Seed: opts.Seed, Model: opts.FaultModel,
		Incremental: opts.Incremental, Env: env}
	pt := &pipeline.ProtectTask{Target: tgt, Level: level, Measure: mt,
		Detector: opts.Detector, Model: opts.FaultModel, Env: env}
	prot := &Protection{Program: p, Technique: tech, Level: level, FaultModel: opts.FaultModel}

	switch tech {
	case TechniqueMINPSID:
		st := &pipeline.SearchTask{Target: tgt, Ref: p.Reference,
			Cfg: opts.searchConfig(), Measure: mt, Env: env}
		pt.Search = st
		outs, err := pipe.RunAll(mt, st, pt)
		if err != nil {
			return nil, err
		}
		mo, sr, po := outs[0].(*pipeline.MeasureOut), outs[1].(*minpsid.SearchResult), outs[2].(*pipeline.ProtectOut)
		prot.Module = po.Mod
		prot.Chosen = po.Sel.Chosen
		prot.Detectors = po.Sel.Detectors
		prot.ExpectedCoverage = po.Sel.ExpectedCoverage
		prot.Incubative = sr.Incubative
		prot.Timing = minpsid.Timing{
			RefFI:        mo.Wall,
			SearchEngine: sr.EngineTime,
			IncubativeFI: sr.FITime,
		}
		return prot, nil
	default:
		outs, err := pipe.RunAll(mt, pt)
		if err != nil {
			return nil, err
		}
		po := outs[1].(*pipeline.ProtectOut)
		prot.Module = po.Mod
		prot.Chosen = po.Sel.Chosen
		prot.Detectors = po.Sel.Detectors
		prot.ExpectedCoverage = po.Sel.ExpectedCoverage
		return prot, nil
	}
}

// model resolves the protection's fault model; nil selects the
// campaign engine's default (single-bit flip).
func (pr *Protection) model() fault.Model {
	if pr.FaultModel == "" {
		return nil
	}
	m, _ := fault.ModelByName(pr.FaultModel)
	return m
}

// CoverageReport is one coverage evaluation of a protected program.
type CoverageReport struct {
	Coverage float64 // detected / (detected + SDC); 1 if no corruptions occurred
	Defined  bool    // false when no SDC-or-detected outcome was observed
	Result   fault.CampaignResult
}

// EvaluateCoverage injects n random faults into the protected program
// running with the given input and reports the measured SDC coverage.
func (pr *Protection) EvaluateCoverage(in inputgen.Input, n int, seed int64) (CoverageReport, error) {
	bind := pr.Program.Bind(in)
	golden, err := fault.RunGolden(pr.Module, bind, pr.Program.Exec)
	if err != nil {
		return CoverageReport{}, fmt.Errorf("core: input inadmissible: %w", err)
	}
	c := &fault.Campaign{Mod: pr.Module, Bind: bind, Cfg: pr.Program.Exec, Golden: golden,
		Model: pr.model()}
	res := c.Run(n, seed)
	cov, ok := res.SDCCoverage()
	if !ok {
		cov = 1
	}
	return CoverageReport{Coverage: cov, Defined: ok, Result: res}, nil
}

// InjectionCampaign runs a program-level FI campaign on the *unprotected*
// program under one input: the raw resilience characterization step.
func (p *Program) InjectionCampaign(in inputgen.Input, n int, seed int64) (fault.CampaignResult, error) {
	return p.InjectionCampaignOpts(in, n, seed, nil, nil, nil)
}

// InjectionCampaignOpts is InjectionCampaign with optional golden-run
// memoization, campaign metrics, and unified observability.
func (p *Program) InjectionCampaignOpts(in inputgen.Input, n int, seed int64, cache *fault.Cache, pm *fault.PhaseMetrics, o *obs.Obs) (fault.CampaignResult, error) {
	return p.InjectionCampaignModel(in, n, seed, nil, cache, pm, o)
}

// InjectionCampaignModel is InjectionCampaignOpts under an explicit
// fault model (nil = the paper's single-bit flip).
func (p *Program) InjectionCampaignModel(in inputgen.Input, n int, seed int64, model fault.Model, cache *fault.Cache, pm *fault.PhaseMetrics, o *obs.Obs) (fault.CampaignResult, error) {
	bind := p.Bind(in)
	golden, err := cache.Golden(p.Module, bind, p.Exec, pm)
	if err != nil {
		return fault.CampaignResult{}, err
	}
	c := &fault.Campaign{Mod: p.Module, Bind: bind, Cfg: p.Exec, Golden: golden,
		Model: model, Metrics: pm, Obs: o}
	return c.Run(n, seed), nil
}

// InjectionCampaignSectional runs the characterization campaign through
// the sectional planner: trials are apportioned over the module's
// sections by injectable dynamic weight and drawn from per-section
// deterministic RNG sub-streams, then composed into one CampaignResult.
// The per-section profiles are returned alongside for reporting. The
// composed result is the same shape as InjectionCampaign's; only the
// sampling stream structure differs.
func (p *Program) InjectionCampaignSectional(in inputgen.Input, n int, seed int64, model fault.Model, cache *fault.Cache, pm *fault.PhaseMetrics, o *obs.Obs) (fault.CampaignResult, []fault.SectionProfile, error) {
	bind := p.Bind(in)
	golden, err := cache.Golden(p.Module, bind, p.Exec, pm)
	if err != nil {
		return fault.CampaignResult{}, nil, err
	}
	c := &fault.Campaign{Mod: p.Module, Bind: bind, Cfg: p.Exec, Golden: golden,
		Model: model, Metrics: pm, Obs: o}
	res, profiles := c.RunSectional(n, seed)
	return res, profiles, nil
}

// TrueCoverageReport is the paper-definition coverage measurement.
type TrueCoverageReport struct {
	Coverage float64 // mitigated / would-be-SDC faults
	Defined  bool    // false when no SDC fault was observed
	Result   fault.TrueCoverageResult
}

// EvaluateTrueCoverage measures SDC coverage in the paper's sense: n
// faults are sampled on the unprotected program, and the SDC-producing
// ones are replayed against the protected binary; coverage is the
// fraction detected. This is the metric behind Figs. 2/6/9. (The simpler
// EvaluateCoverage reports the protected program's own detected/(detected
// + SDC) ratio, which also counts detections of faults that would have
// been masked.)
func (pr *Protection) EvaluateTrueCoverage(in inputgen.Input, n int, seed int64) (TrueCoverageReport, error) {
	idMap := sid.InstrMap(pr.Program.Module, pr.Module)
	res, err := fault.TrueCoverageOpts(pr.Program.Module, pr.Module, idMap,
		pr.Program.Bind(in), pr.Program.Exec, fault.CoverageOptions{
			Trials: n, Seed: seed, Model: pr.model()})
	if err != nil {
		return TrueCoverageReport{}, err
	}
	cov, ok := res.Coverage()
	if !ok {
		cov = 1
	}
	return TrueCoverageReport{Coverage: cov, Defined: ok, Result: res}, nil
}
