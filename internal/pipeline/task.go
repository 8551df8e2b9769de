package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minpsid"
	"repro/internal/sid"
)

// NormModel canonicalizes a fault-model spelling: "" means the paper's
// default model. Task keys hash the canonical form only when it differs
// from the default, so every pre-existing artifact key is unchanged.
func NormModel(name string) string {
	if name == "" {
		return fault.DefaultModel().Name()
	}
	return name
}

// NormDetector canonicalizes a detector-portfolio spec: "" means the
// dup-only portfolio the paper evaluates.
func NormDetector(spec string) string {
	if spec == "" {
		return sid.DefaultDetector().Name()
	}
	return spec
}

// modelFor resolves a canonical model name against the registry.
func modelFor(name string) (fault.Model, error) {
	m, ok := fault.ModelByName(NormModel(name))
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown fault model %q (have %s)",
			name, strings.Join(fault.ModelNames(), ", "))
	}
	return m, nil
}

// Env carries the observational machinery tasks thread into the campaign
// engine: the in-memory golden-run/campaign cache, the per-phase metrics
// collector, and the intra-campaign worker bound. Env never participates
// in task keys — results are bit-identical for every Env.
type Env struct {
	Cache   *fault.Cache
	Metrics *fault.Metrics
	Workers int
}

// ---------------------------------------------------------------------
// CompileTask

// CompileTask loads (and verifies) a benchmark's IR module.
type CompileTask struct {
	Bench *benchprog.Benchmark
}

// Kind implements Task.
func (t *CompileTask) Kind() string { return "compile" }

// Key implements Task. Benchmark sources are compiled into this binary,
// so the name pins the content; the output is never persisted.
func (t *CompileTask) Key() Key { return NewHasher("compile").Str(t.Bench.Name).Sum() }

// Deps implements Task.
func (t *CompileTask) Deps() []Task { return nil }

// Run implements Task.
func (t *CompileTask) Run(rt *Runtime) (any, error) { return t.Bench.Module() }

// ---------------------------------------------------------------------
// MeasureTask

// MeasureOut is the reference per-instruction FI measurement plus its
// wall time (component ① of the Fig. 8 breakdown). When loaded from
// disk, Wall reports the original measurement's cost, so timing tables
// render identically on warm reruns.
type MeasureOut struct {
	Meas *sid.Measurement
	Wall time.Duration
}

// MeasureTask runs per-instruction fault injection of a module under one
// input (the SID preparation measurement, steps 1-2 of the paper's
// Fig. 4).
type MeasureTask struct {
	Target         minpsid.Target
	Input          inputgen.Input
	FaultsPerInstr int
	Seed           int64
	// Model names the fault model the measurement campaign injects
	// ("" = the paper's single-bit flip).
	Model string
	// Incremental runs the measurement sectionally: one sub-task per
	// section, keyed by section content (not module), composed into the
	// same Measurement shape. Off by default — the flag extends the key,
	// so every default artifact key is byte-identical to before.
	Incremental bool
	Env         Env
}

// Kind implements Task.
func (t *MeasureTask) Kind() string { return "measure" }

// Key implements Task. The analysis version participates because the
// campaign engine consults the static triage when classifying trials:
// a triage rule change must invalidate persisted measurements even
// though a sound triage cannot change them (defense against an unsound
// revision silently reusing stale artifacts).
func (t *MeasureTask) Key() Key {
	h := NewHasher("measure").
		Key(ModuleHash(t.Target.Mod)).
		Key(BindingHash(t.Target.Bind(t.Input))).
		Key(ExecHash(t.Target.Exec)).
		I64(int64(t.FaultsPerInstr)).
		I64(t.Seed).
		Str(analysis.Version)
	// Non-default models extend the key; the default path keys exactly as
	// before, so persisted default artifacts stay valid.
	if m := NormModel(t.Model); m != fault.DefaultModel().Name() {
		h.Str("model").Str(m)
	}
	// Incremental measurements draw from per-section RNG sub-streams, so
	// they are a distinct artifact; the section schema version retires
	// them when the sectioning contract changes.
	if t.Incremental {
		h.Str("incremental").Str(SectionSchema)
	}
	return h.Sum()
}

// Deps implements Task.
func (t *MeasureTask) Deps() []Task { return nil }

// Run implements Task.
func (t *MeasureTask) Run(rt *Runtime) (any, error) {
	if t.Incremental {
		return t.runIncremental(rt)
	}
	model, err := modelFor(t.Model)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	meas, err := sid.Measure(t.Target.Mod, t.Target.Bind(t.Input), sid.Config{
		Exec:           t.Target.Exec,
		FaultsPerInstr: t.FaultsPerInstr,
		Seed:           t.Seed,
		Model:          model,
		Workers:        t.Env.Workers,
		Cache:          t.Env.Cache,
		Metrics:        t.Env.Metrics.Phase(fault.PhaseRefFI),
		Obs:            rt.Obs(),
	})
	if err != nil {
		return nil, err
	}
	return &MeasureOut{Meas: meas, Wall: time.Since(t0)}, nil
}

// measureArtifact is the persisted form. The golden run (output + full
// dynamic profile) is deliberately not stored: it is large and is
// regenerated deterministically in one fault-free execution on load.
type measureArtifact struct {
	Cost    []float64 `json:"cost"`
	DynFrac []float64 `json:"dyn_frac"`
	SDCProb []float64 `json:"sdc_prob"`
	Benefit []float64 `json:"benefit"`
	WallNS  int64     `json:"wall_ns"`
}

// Encode implements Persistable.
func (t *MeasureTask) Encode(v any) ([]byte, error) {
	out := v.(*MeasureOut)
	return encodeArtifact(t.Kind(), measureArtifact{
		Cost:    out.Meas.Cost,
		DynFrac: out.Meas.DynFrac,
		SDCProb: out.Meas.SDCProb,
		Benefit: out.Meas.Benefit,
		WallNS:  out.Wall.Nanoseconds(),
	})
}

// Decode implements Persistable.
func (t *MeasureTask) Decode(data []byte) (any, error) {
	var a measureArtifact
	if err := decodeArtifact(t.Kind(), data, &a); err != nil {
		return nil, err
	}
	if len(a.Benefit) != t.Target.Mod.NumInstrs() {
		return nil, fmt.Errorf("pipeline: measurement arity %d, module has %d instrs",
			len(a.Benefit), t.Target.Mod.NumInstrs())
	}
	return &MeasureOut{
		Meas: &sid.Measurement{Cost: a.Cost, DynFrac: a.DynFrac, SDCProb: a.SDCProb, Benefit: a.Benefit},
		Wall: time.Duration(a.WallNS),
	}, nil
}

// Rehydrate implements Rehydrator: instruction selection and the input
// search both need the reference golden profile, which is not persisted;
// one deterministic fault-free run restores it.
func (t *MeasureTask) Rehydrate(rt *Runtime, v any) (any, error) {
	out := v.(*MeasureOut)
	golden, err := t.Env.Cache.Golden(t.Target.Mod, t.Target.Bind(t.Input), t.Target.Exec,
		t.Env.Metrics.Phase(fault.PhaseRefFI))
	if err != nil {
		return nil, err
	}
	out.Meas.Golden = golden
	return out, nil
}

// ---------------------------------------------------------------------
// SearchTask

// SearchTask runs the MINPSID incubative-instruction input search
// (steps 3-7 of Fig. 4) on top of a reference measurement.
type SearchTask struct {
	Target minpsid.Target
	Ref    inputgen.Input
	// Cfg shapes the search. Only Canonical() parameter fields reach the
	// key and the engine; cache/metrics/workers come from Env.
	Cfg     minpsid.Config
	Measure *MeasureTask
	Env     Env
}

// Kind implements Task.
func (t *SearchTask) Kind() string { return "search" }

// Key implements Task.
func (t *SearchTask) Key() Key {
	c := t.Cfg.Canonical()
	return NewHasher("search").
		Key(ModuleHash(t.Target.Mod)).
		Key(BindingHash(t.Target.Bind(t.Ref))).
		Key(ExecHash(t.Target.Exec)).
		Key(SpecHash(t.Target.Spec)).
		F64(c.Rule.BottomFrac).F64(c.Rule.EscapeFrac).
		I64(int64(c.FaultsPerInstr)).
		I64(int64(c.MaxInputs)).
		I64(int64(c.Patience)).
		I64(int64(c.PopSize)).
		I64(int64(c.MaxGenerations)).
		F64(c.MutationRate).
		F64(c.CrossoverRate).
		Str(c.Strategy.String()).
		I64(c.Seed).
		Sum()
}

// Deps implements Task.
func (t *SearchTask) Deps() []Task { return []Task{t.Measure} }

// Run implements Task.
func (t *SearchTask) Run(rt *Runtime) (any, error) {
	mo := rt.Out(t.Measure).(*MeasureOut)
	cfg := t.Cfg.Canonical()
	cfg.Cache = t.Env.Cache
	cfg.Metrics = t.Env.Metrics
	cfg.Workers = t.Env.Workers
	cfg.Obs = rt.Obs()
	return minpsid.Search(t.Target, cfg, t.Ref, mo.Meas), nil
}

// searchArtifact is the persisted form of a SearchResult.
type searchArtifact struct {
	Incubative   []int           `json:"incubative"`
	MaxBenefit   []float64       `json:"max_benefit"`
	Trace        []tracePoint    `json:"trace"`
	Inputs       []inputArtifact `json:"inputs"`
	FitnessEvals int             `json:"fitness_evals"`
	EngineNS     int64           `json:"engine_ns"`
	FINS         int64           `json:"fi_ns"`
}

type tracePoint struct {
	InputIndex int     `json:"i"`
	Incubative int     `json:"inc"`
	Fitness    float64 `json:"fit"`
}

type inputArtifact struct {
	I []int64   `json:"i,omitempty"`
	F []float64 `json:"f,omitempty"`
}

// Encode implements Persistable.
func (t *SearchTask) Encode(v any) ([]byte, error) {
	sr := v.(*minpsid.SearchResult)
	a := searchArtifact{
		Incubative:   sr.Incubative,
		MaxBenefit:   sr.MaxBenefit,
		FitnessEvals: sr.FitnessEvals,
		EngineNS:     sr.EngineTime.Nanoseconds(),
		FINS:         sr.FITime.Nanoseconds(),
	}
	for _, tp := range sr.Trace {
		a.Trace = append(a.Trace, tracePoint{InputIndex: tp.InputIndex, Incubative: tp.Incubative, Fitness: tp.Fitness})
	}
	for _, in := range sr.Inputs {
		a.Inputs = append(a.Inputs, inputArtifact{I: in.I, F: in.F})
	}
	return encodeArtifact(t.Kind(), a)
}

// Decode implements Persistable.
func (t *SearchTask) Decode(data []byte) (any, error) {
	var a searchArtifact
	if err := decodeArtifact(t.Kind(), data, &a); err != nil {
		return nil, err
	}
	if len(a.MaxBenefit) != t.Target.Mod.NumInstrs() {
		return nil, fmt.Errorf("pipeline: search arity %d, module has %d instrs",
			len(a.MaxBenefit), t.Target.Mod.NumInstrs())
	}
	sr := &minpsid.SearchResult{
		Incubative:   a.Incubative,
		MaxBenefit:   a.MaxBenefit,
		FitnessEvals: a.FitnessEvals,
		EngineTime:   time.Duration(a.EngineNS),
		FITime:       time.Duration(a.FINS),
	}
	for _, tp := range a.Trace {
		sr.Trace = append(sr.Trace, minpsid.TracePoint{InputIndex: tp.InputIndex, Incubative: tp.Incubative, Fitness: tp.Fitness})
	}
	for _, in := range a.Inputs {
		sr.Inputs = append(sr.Inputs, inputgen.Input{I: in.I, F: in.F})
	}
	return sr, nil
}

// ---------------------------------------------------------------------
// ProtectTask

// ProtectOut bundles a protected binary with everything true-coverage
// replay needs: the original module, the selection, and the static
// instruction-ID mapping.
type ProtectOut struct {
	Orig *ir.Module
	Mod  *ir.Module
	IDs  map[int]int
	Sel  sid.Selection
}

// ProtectTask selects instructions under a protection-level budget and
// applies the duplication transform. With Search set it re-prioritizes
// incubative instructions first (MINPSID); without it this is baseline
// SID. The output holds module pointers and is recomputed (cheaply, no
// fault injection) rather than persisted.
type ProtectTask struct {
	Target  minpsid.Target
	Level   float64
	Measure *MeasureTask
	Search  *SearchTask // nil = baseline SID
	// Detector is the detector-portfolio spec ("" or "dup" = the legacy
	// duplication-everywhere transform; "dup,inv,cfgsig" or "all" selects
	// per site via the multi-choice knapsack). Model names the fault
	// model the portfolio's coverage estimates assume.
	Detector string
	Model    string
	Env      Env
}

// Kind implements Task.
func (t *ProtectTask) Kind() string { return "protect" }

// Key implements Task.
func (t *ProtectTask) Key() Key {
	h := NewHasher("protect").Key(t.Measure.Key()).F64(t.Level)
	if t.Search != nil {
		h.Str("minpsid").Key(t.Search.Key())
	} else {
		h.Str("sid")
	}
	// A non-default portfolio changes both the selection (coverage-scaled
	// benefits under the model) and the lowering; the default keys as
	// before. The model alone does not extend the key here: with the
	// dup-only portfolio it influences protection only through the
	// measurement, which Measure.Key already pins.
	if d := NormDetector(t.Detector); d != sid.DefaultDetector().Name() {
		h.Str("detector").Str(d).Str(NormModel(t.Model))
	}
	return h.Sum()
}

// Deps implements Task.
func (t *ProtectTask) Deps() []Task {
	if t.Search == nil {
		return []Task{t.Measure}
	}
	return []Task{t.Measure, t.Search}
}

// Run implements Task.
func (t *ProtectTask) Run(rt *Runtime) (any, error) {
	meas := rt.Out(t.Measure).(*MeasureOut).Meas
	if t.Search != nil {
		sr := rt.Out(t.Search).(*minpsid.SearchResult)
		meas = minpsid.Reprioritize(meas, sr)
	}
	if d := NormDetector(t.Detector); d != sid.DefaultDetector().Name() {
		portfolio, err := sid.ParsePortfolio(d)
		if err != nil {
			return nil, err
		}
		model, err := modelFor(t.Model)
		if err != nil {
			return nil, err
		}
		sel := sid.SelectPortfolio(t.Target.Mod, meas, t.Level, sid.MethodDP, portfolio, model)
		mod := sid.LowerSelection(t.Target.Mod, sel)
		return &ProtectOut{
			Orig: t.Target.Mod,
			Mod:  mod,
			IDs:  sid.InstrMap(t.Target.Mod, mod),
			Sel:  sel,
		}, nil
	}
	// Default portfolio: the legacy single-detector path, kept verbatim so
	// the paper's defaults remain byte-identical.
	sel := sid.Select(t.Target.Mod, meas, t.Level, sid.MethodDP)
	mod := sid.Duplicate(t.Target.Mod, sel.Chosen)
	return &ProtectOut{
		Orig: t.Target.Mod,
		Mod:  mod,
		IDs:  sid.InstrMap(t.Target.Mod, mod),
		Sel:  sel,
	}, nil
}

// ---------------------------------------------------------------------
// InputsTask

// InputsTask draws n fresh admissible evaluation inputs (the paper's
// input filtering, §III-A2). Admissibility requires a fault-free golden
// run, which primes the campaign cache for the coverage evaluation of
// the same inputs.
type InputsTask struct {
	Target minpsid.Target
	N      int
	Seed   int64
	Env    Env
}

// Kind implements Task.
func (t *InputsTask) Kind() string { return "inputs" }

// Key implements Task.
func (t *InputsTask) Key() Key {
	return NewHasher("inputs").
		Key(ModuleHash(t.Target.Mod)).
		Key(ExecHash(t.Target.Exec)).
		Key(SpecHash(t.Target.Spec)).
		I64(int64(t.N)).
		I64(t.Seed).
		Sum()
}

// Deps implements Task.
func (t *InputsTask) Deps() []Task { return nil }

// Run implements Task.
func (t *InputsTask) Run(rt *Runtime) (any, error) {
	rng := rand.New(rand.NewSource(t.Seed))
	pm := t.Env.Metrics.Phase(fault.PhaseEvaluation)
	var out []inputgen.Input
	for tries := 0; len(out) < t.N && tries < t.N*50; tries++ {
		in := t.Target.Spec.Random(rng)
		if _, err := t.Env.Cache.Golden(t.Target.Mod, t.Target.Bind(in), t.Target.Exec, pm); err != nil {
			continue
		}
		out = append(out, in)
	}
	return out, nil
}

// inputsArtifact is the persisted form.
type inputsArtifact struct {
	Inputs []inputArtifact `json:"inputs"`
}

// Encode implements Persistable.
func (t *InputsTask) Encode(v any) ([]byte, error) {
	ins := v.([]inputgen.Input)
	a := inputsArtifact{}
	for _, in := range ins {
		a.Inputs = append(a.Inputs, inputArtifact{I: in.I, F: in.F})
	}
	return encodeArtifact(t.Kind(), a)
}

// Decode implements Persistable.
func (t *InputsTask) Decode(data []byte) (any, error) {
	var a inputsArtifact
	if err := decodeArtifact(t.Kind(), data, &a); err != nil {
		return nil, err
	}
	var out []inputgen.Input
	for _, in := range a.Inputs {
		out = append(out, inputgen.Input{I: in.I, F: in.F})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// CampaignTask

// CoverageOut is one true-coverage measurement. Ok is false when the
// input is inadmissible or no SDC fault was observed (coverage
// undefined) — a deterministic property of the key, so it persists too.
type CoverageOut struct {
	Cov       float64 `json:"cov"`
	Ok        bool    `json:"ok"`
	Trials    int64   `json:"trials"`
	SDCFaults int64   `json:"sdc_faults"`
	Mitigated int64   `json:"mitigated"`
}

// CampaignTask measures the paper-definition SDC coverage of one
// protection under one input binding: faults are sampled on the original
// program and the SDC-producing ones replayed against the protected
// binary. The key is content-addressed on (original module, selection,
// binding, trials, seed) — NOT on technique or level — so two techniques
// that select the same instructions share one campaign, within a run and
// across runs.
type CampaignTask struct {
	Prot   *ProtectOut
	Bind   interp.Binding
	Exec   interp.Config
	Trials int
	Seed   int64
	// Model names the fault model both campaign phases inject ("" = the
	// paper's single-bit flip).
	Model string
	// Incremental computes phase 1 sectionally (per-section sub-tasks
	// keyed by section content) and replays phase 2 through the shared
	// fault.ReplayCoverage path. Off by default; extends the key only
	// when set.
	Incremental bool
	Env         Env
}

// Kind implements Task.
func (t *CampaignTask) Kind() string { return "campaign" }

// Key implements Task. analysis.Version is hashed for the same reason
// as in MeasureTask.Key: triage revisions invalidate cached campaigns.
func (t *CampaignTask) Key() Key {
	h := NewHasher("campaign").
		Key(ModuleHash(t.Prot.Orig)).
		Ints(t.Prot.Sel.Chosen)
	// Heterogeneous selections produce different protected binaries from
	// the same chosen set, so the per-site detector assignment is part of
	// the campaign identity. A nil slice (duplication everywhere) adds
	// nothing, keeping legacy keys byte-identical.
	if len(t.Prot.Sel.Detectors) > 0 {
		h.Strs(t.Prot.Sel.Detectors)
	}
	h.Key(BindingHash(t.Bind)).
		Key(ExecHash(t.Exec)).
		I64(int64(t.Trials)).
		I64(t.Seed).
		Str(analysis.Version)
	if m := NormModel(t.Model); m != fault.DefaultModel().Name() {
		h.Str("model").Str(m)
	}
	if t.Incremental {
		h.Str("incremental").Str(SectionSchema)
	}
	return h.Sum()
}

// Deps implements Task.
func (t *CampaignTask) Deps() []Task { return nil }

// Run implements Task.
func (t *CampaignTask) Run(rt *Runtime) (any, error) {
	if t.Incremental {
		return t.runIncremental(rt)
	}
	model, err := modelFor(t.Model)
	if err != nil {
		return nil, err
	}
	res, err := fault.TrueCoverageOpts(t.Prot.Orig, t.Prot.Mod, t.Prot.IDs, t.Bind, t.Exec, fault.CoverageOptions{
		Trials:  t.Trials,
		Seed:    t.Seed,
		Model:   model,
		Workers: t.Env.Workers,
		Cache:   t.Env.Cache,
		Metrics: t.Env.Metrics.Phase(fault.PhaseEvaluation),
		Obs:     rt.Obs(),
	})
	if err != nil {
		// Inadmissible input: deterministically undefined, not a failure.
		return &CoverageOut{}, nil
	}
	cov, ok := res.Coverage()
	return &CoverageOut{
		Cov:       cov,
		Ok:        ok,
		Trials:    res.Trials,
		SDCFaults: res.SDCFaults,
		Mitigated: res.Mitigated,
	}, nil
}

// Encode implements Persistable.
func (t *CampaignTask) Encode(v any) ([]byte, error) {
	return encodeArtifact(t.Kind(), v.(*CoverageOut))
}

// Decode implements Persistable.
func (t *CampaignTask) Decode(data []byte) (any, error) {
	var out CoverageOut
	if err := decodeArtifact(t.Kind(), data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
