package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/pipeline"
	"repro/internal/sid"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A metric whose layer is not on a workload's path reads 0 there
// (README.md says which workloads each applies to).
var layerUnits = map[string]string{
	"minicc.compile_ms":             "ms",
	"analysis.triage_ms":            "ms",
	"analysis.pruned_frac":          "frac",
	"analysis.boundary_ms":          "ms",
	"ir.partition_ms":               "ms",
	"interp.dyn_instrs":             "count",
	"interp.ns_per_instr":           "ns",
	"interp.golden_ms":              "ms",
	"interp.golden_runs":            "count",
	"fault.trials_run":              "count",
	"fault.ns_per_trial":            "ns",
	"fault.golden_cache_hit_frac":   "frac",
	"fault.campaign_cache_hit_frac": "frac",
	"fault.replay_s":                "s",
	"fault.util_frac":               "frac",
	"sid.ref_fi_s":                  "s",
	"sid.select_ms":                 "ms",
	"sid.protect_ms":                "ms",
	"minpsid.search_s":              "s",
	"minpsid.incubative_fi_s":       "s",
	"minpsid.fitness_evals":         "count",
	"harness.eval_campaign_s":       "s",
	"harness.render_ms":             "ms",
	"pipeline.tasks_run":            "count",
	"pipeline.disk_hit_frac":        "frac",
	"pipeline.put_us":               "us",
	"pipeline.get_us":               "us",
	"pipeline.decode_us":            "us",
	"pipeline.bytes_written":        "bytes",
	"pipeline.bytes_read":           "bytes",
	"pipeline.sections_rerun_frac":  "frac",
	"server.queue_wait_ms":          "ms",
	"server.exec_ms":                "ms",
	"server.http_rtt_ms":            "ms",
	"server.shards_run":             "count",
	"server.shard_disk_hit_frac":    "frac",
	"server.dedup_join_frac":        "frac",
	"proc.cpu_s":                    "s",
	"proc.cpu_util_frac":            "frac",
	"trace.unattributed_frac":       "frac",
	"trace.overhead_ms":             "ms",
}

// environment stamps a result row so rows stay comparable across
// commits and machines.
func environment(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      nproc(),
		"cpu":        cpuModel(),
		"engine":     interp.DefaultEngine.String(),
		"seed":       cfg.seed,
	}
}

// ---------------------------------------------------------------------
// Isolated probes: one layer's public function on the workload's inputs.

// compileProbe compiles and optimizes every paper benchmark's source
// fresh and returns the total wall time and the modules.
func compileProbe() (time.Duration, []*ir.Module, error) {
	var mods []*ir.Module
	t0 := time.Now()
	for _, b := range benchprog.Eleven() {
		m, err := freshModule(b)
		if err != nil {
			return 0, nil, err
		}
		mods = append(mods, m)
	}
	return time.Since(t0), mods, nil
}

// freshModule compiles a benchmark's MiniC source and runs the standard
// passes, bypassing benchprog's per-process module cache.
func freshModule(b *benchprog.Benchmark) (*ir.Module, error) {
	m, err := minicc.Compile(b.Name+".mc", b.Source)
	if err != nil {
		return nil, err
	}
	if err := passes.Optimize(m); err != nil {
		return nil, err
	}
	return m, nil
}

// staticProbes times the static layers on mods, as the mean per module:
// triage construction, boundary summaries, and section partitioning.
func staticProbes(mods []*ir.Module, layers map[string]float64) {
	per := func(f func(*ir.Module)) float64 {
		t0 := time.Now()
		for _, m := range mods {
			f(m)
		}
		return msOf(time.Since(t0)) / float64(len(mods))
	}
	// Partitioning is memoized per module snapshot and boundaries build on
	// it, so it is probed first, on modules nothing has partitioned yet.
	layers["ir.partition_ms"] = per(func(m *ir.Module) { ir.PartitionSections(m) })
	layers["analysis.triage_ms"] = per(func(m *ir.Module) { analysis.NewTriage(m) })
	layers["analysis.boundary_ms"] = per(func(m *ir.Module) { analysis.BuildBoundaries(m) })
}

// probeTrials is the fault-armed trial count per benchmark of the
// interpreter probe.
const probeTrials = 60

// interpProbes times golden runs of the benchmarks' reference inputs and
// a single-worker fault-armed campaign on each, and the baseline SID
// selection over a cheap (heuristic) measurement at the paper's three
// protection levels.
func interpProbes(mods []*ir.Module, layers map[string]float64) error {
	bs := benchprog.Eleven()
	var golden, selectT time.Duration
	goldens := make([]*fault.Golden, len(mods))
	for i, m := range mods {
		t0 := time.Now()
		g, err := fault.RunGolden(m, bs[i].Bind(bs[i].Reference), bs[i].ExecConfig())
		if err != nil {
			return err
		}
		golden += time.Since(t0)
		goldens[i] = g
		meas, err := sid.HeuristicMeasure(m, bs[i].Bind(bs[i].Reference), bs[i].ExecConfig())
		if err != nil {
			return err
		}
		t1 := time.Now()
		for _, level := range []float64{0.3, 0.5, 0.7} {
			sid.Select(m, meas, level, sid.MethodDP)
		}
		selectT += time.Since(t1)
	}
	layers["interp.golden_ms"] = msOf(golden)
	layers["sid.select_ms"] = msOf(selectT) / float64(len(mods))

	reg := obs.NewRegistry()
	interp.SetObs(reg)
	defer interp.SetObs(nil)
	t0 := time.Now()
	for i, m := range mods {
		c := &fault.Campaign{Mod: m, Bind: bs[i].Bind(bs[i].Reference), Cfg: bs[i].ExecConfig(),
			Golden: goldens[i], Workers: 1}
		c.Run(probeTrials, 1)
	}
	wall := time.Since(t0)
	layers["interp.ns_per_instr"] = frac(float64(wall.Nanoseconds()), float64(reg.Counter("interp.dyn_instrs").Value()))
	return nil
}

// storeProbes reads, decodes and rewrites every artifact of a disk store
// and reports the mean cost per artifact plus the store's size.
func storeProbes(storeRoot, scratch string, layers map[string]float64) error {
	st, err := pipeline.NewDiskStore(storeRoot)
	if err != nil {
		return err
	}
	out, err := pipeline.NewDiskStore(scratch)
	if err != nil {
		return err
	}
	kinds, err := os.ReadDir(st.Dir())
	if err != nil {
		return err
	}
	var n int
	var get, dec, put time.Duration
	for _, k := range kinds {
		if !k.IsDir() {
			continue
		}
		for _, key := range st.Keys(k.Name()) {
			t0 := time.Now()
			data, ok := st.Get(k.Name(), key)
			t1 := time.Now()
			if !ok {
				continue
			}
			var v json.RawMessage
			if err := pipeline.DecodeArtifact(k.Name(), data, &v); err != nil {
				return err
			}
			var payload any
			if err := json.Unmarshal(v, &payload); err != nil {
				return err
			}
			t2 := time.Now()
			if err := out.Put(k.Name(), key, data); err != nil {
				return err
			}
			get += t1.Sub(t0)
			dec += t2.Sub(t1)
			put += time.Since(t2)
			n++
		}
	}
	if n > 0 {
		layers["pipeline.get_us"] = usOf(get) / float64(n)
		layers["pipeline.decode_us"] = usOf(dec) / float64(n)
		layers["pipeline.put_us"] = usOf(put) / float64(n)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// kindBytes returns the mean artifact size per kind of a disk store.
func kindBytes(storeRoot string) map[string]float64 {
	out := map[string]float64{}
	dir := filepath.Join(storeRoot, "v"+strconv.Itoa(pipeline.StoreVersion))
	kinds, _ := os.ReadDir(dir)
	for _, k := range kinds {
		if !k.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(dir, k.Name()))
		var total, n float64
		for _, f := range files {
			if info, err := f.Info(); err == nil && strings.HasSuffix(f.Name(), ".json") {
				total += float64(info.Size())
				n++
			}
		}
		out[k.Name()] = frac(total, n)
	}
	return out
}

// commonProbes runs the probes every workload reports on the paper's
// eleven reference programs.
func commonProbes(layers map[string]float64) error {
	d, mods, err := compileProbe()
	if err != nil {
		return err
	}
	layers["minicc.compile_ms"] = msOf(d)
	staticProbes(mods, layers)
	return interpProbes(mods, layers)
}

// ---------------------------------------------------------------------
// Span accounting.

// containerSpan reports whether a span only groups other work: the
// experiment and pipeline roots and the composite evaluation node, whose
// duration is inclusive of the subtasks it awaits.
func containerSpan(name string) bool {
	return name == "pipeline" || name == "eval" || strings.HasPrefix(name, "exp:")
}

// layerIntervals collects the intervals of every non-container span of a
// trace snapshot, offset by base nanoseconds.
func layerIntervals(ts *obs.TraceSnapshot, base int64) []interval {
	var ivs []interval
	ts.Walk(func(_ string, s *obs.SpanSnapshot) {
		if !containerSpan(s.Name) {
			ivs = append(ivs, interval{base + s.StartNS, base + s.StartNS + s.DurNS})
		}
	})
	return ivs
}

// replayTime sums, over every pipeline campaign node, its last fi-batch:
// phase 2 (replay against the protected binary) always runs last, while
// phase 1 may be memoized or run under a different node.
func replayTime(ts *obs.TraceSnapshot) time.Duration {
	var total int64
	ts.Walk(func(path string, s *obs.SpanSnapshot) {
		if s.Name != "campaign" {
			return
		}
		var last *obs.SpanSnapshot
		for _, c := range s.Children {
			if c.Name == "fi-batch" && (last == nil || c.StartNS >= last.StartNS) {
				last = c
			}
		}
		if last != nil {
			total += last.DurNS
		}
	})
	return time.Duration(total)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
