package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The paper workloads run cmd/experiments exactly as a user regenerates
// Fig. 2 and Fig. 8: the quick profile over all eleven benchmarks, with
// the default engine, worker count and artifact store (<out>/cache).

// setupReps is how many times a repeatable set-up step runs; setup_s
// reports the median.
const setupReps = 3

// coldRegens is the fewest cold regenerations one run makes, so that its
// median is not a single sample of a shared machine. The k-th regenerates
// at program seed seed + k·coldSeedStride: how much fault injection a
// regeneration does varies by about ±10% from seed to seed, and the
// median averages over that too. Longer runs make one per coldRegenTime
// (about one regeneration on 2 shared CPUs) of their length, so every run
// at one length does the same work.
const (
	coldRegens     = 2
	coldRegenTime  = 25 * time.Second
	coldSeedStride = 1_000_003
)

// expectedPath pins the reproducible part of the paper output at the
// default seed.
func expectedPath(cfg config) string {
	return filepath.Join(cfg.root, "perfbench", "testdata", "paper_seed1.txt")
}

func experimentsBin(cfg config) string {
	return filepath.Join(cfg.root, ".bench_build", "bin", "experiments")
}

// buildExperiments builds the user-facing binary from the checkout (a
// cached rebuild after the first run).
func buildExperiments(cfg config) error {
	cmd := exec.Command("go", "build", "-o", experimentsBin(cfg), "./cmd/experiments")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/experiments: %v\n%s", err, out)
	}
	return nil
}

// repeatSetup runs a set-up step setupReps times and returns the median.
func repeatSetup(step func(rep int) error) (time.Duration, error) {
	var ds []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := step(rep); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDur(ds), nil
}

// regen is one finished experiments process.
type regen struct {
	wall   time.Duration
	stdout []byte
	rssKB  int64
	cpu    time.Duration
}

// runExperiments regenerates Fig. 2 and Fig. 8 at seed into outDir,
// writing a run manifest when manifest is non-empty.
func runExperiments(cfg config, seed int64, outDir, manifest string) (*regen, error) {
	args := []string{"-exp", "fig2,fig8", "-seed", strconv.FormatInt(seed, 10), "-out", outDir}
	if manifest != "" {
		args = append(args, "-manifest", manifest)
	}
	cmd := exec.Command(experimentsBin(cfg), args...)
	cmd.Dir = cfg.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("experiments %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	r := &regen{wall: wall, stdout: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssKB, r.cpu = ru.Maxrss, rusageCPU(ru)
	}
	return r, nil
}

// reproducible reduces experiments output to the bytes a fixed seed
// must reproduce: Fig. 2 verbatim, and of Fig. 8 only the first column
// of each line, since its other columns are wall times.
func reproducible(stdout []byte) string {
	s := string(stdout)
	i := strings.Index(s, "Fig. 8:")
	if i < 0 {
		return s
	}
	var b strings.Builder
	b.WriteString(s[:i])
	for _, line := range strings.Split(s[i:], "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			b.WriteString(f[0])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkExpected compares reproducible output at seed with the pinned file
// when seed is the default seed (or rewrites the file under
// -update-expected).
func checkExpected(cfg config, seed int64, o *outcome, got string) {
	if seed != defaultSeed {
		return
	}
	if cfg.update {
		if err := os.WriteFile(expectedPath(cfg), []byte(got), 0o644); err != nil {
			o.fail("write expected output: %v", err)
		}
		return
	}
	want, err := os.ReadFile(expectedPath(cfg))
	if err != nil {
		o.fail("read expected output: %v", err)
		return
	}
	if string(want) != got {
		o.fail("paper output at seed %d differs from %s", seed, expectedPath(cfg))
	}
}

// paperCold regenerates the figures from an empty store: nearly all of
// its time is fault injection, and the store is only written.
func paperCold(cfg config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	var err error
	if o.setup, err = repeatSetup(func(int) error { return buildExperiments(cfg) }); err != nil {
		return nil, err
	}
	type cold struct {
		seed int64
		dir  string
		r    *regen
	}
	var colds []cold
	regens := max(coldRegens, int(cfg.seconds/coldRegenTime))
	t0 := time.Now()
	for k := range regens {
		seed := cfg.seed + int64(k)*coldSeedStride
		dir := filepath.Join(cfg.work, fmt.Sprintf("cold%d", k))
		o.attempt++
		r, err := runExperiments(cfg, seed, dir, "")
		if err != nil {
			o.fail("%v", err)
			continue
		}
		o.lat = append(o.lat, r.wall)
		o.rssKB = max(o.rssKB, r.rssKB)
		colds = append(colds, cold{seed, dir, r})
	}
	o.wall = time.Since(t0)

	// Outside the timed region: a warm rerun on each cold store must
	// reproduce the cold output, and the default seed must reproduce the
	// pinned file.
	for _, c := range colds {
		warm, err := runExperiments(cfg, c.seed, c.dir, "")
		switch {
		case err != nil:
			o.fail("warm check: %v", err)
		case reproducible(warm.stdout) != reproducible(c.r.stdout):
			o.fail("warm rerun of seed %d differs from the cold run", c.seed)
		}
		checkExpected(cfg, c.seed, o, reproducible(c.r.stdout))
	}
	o.named = []namedValue{{"regen_s", "s", median(ms(o.lat)) / 1000}, {"setup_s", "s", o.setup.Seconds()}}

	if cfg.trace && len(colds) > 0 {
		c := colds[0]
		dir := filepath.Join(cfg.work, "traced")
		manifest := filepath.Join(cfg.work, "manifest.json")
		r, err := runExperiments(cfg, c.seed, dir, manifest)
		if err != nil {
			return nil, err
		}
		if reproducible(r.stdout) != reproducible(c.r.stdout) {
			o.fail("traced run of seed %d differs from the untraced run", c.seed)
		}
		o.layers["trace.overhead_ms"] = msOf(r.wall) - msOf(c.r.wall)
		if err := paperLayers(cfg, r, dir, manifest, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// paperLayers fills the per-layer metrics of one traced regeneration
// from its manifest (span tree and registry), its metrics report, its
// store, and the isolated probes.
func paperLayers(cfg config, r *regen, outDir, manifestPath string, layers map[string]float64) error {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	m, err := obs.ParseManifest(data)
	if err != nil {
		return err
	}
	c := m.Registry.Counters
	phaseSum := func(field string) float64 {
		var s float64
		for k, v := range c {
			if strings.HasPrefix(k, "fault.phase.") && strings.HasSuffix(k, "."+field) &&
				strings.Count(k, ".") == 3 {
				s += float64(v)
			}
		}
		return s
	}
	phaseS := func(phase string) float64 { return float64(c["fault.phase."+phase+".wall_ns"]) / 1e9 }
	trials := float64(c["fault.trials"])
	busy := phaseSum("busy_ns")

	layers["interp.dyn_instrs"] = float64(c["interp.dyn_instrs"])
	layers["interp.golden_runs"] = phaseSum("golden_runs")
	layers["fault.trials_run"] = trials
	layers["fault.ns_per_trial"] = frac(busy, trials)
	layers["fault.util_frac"] = frac(busy, float64(r.wall)*float64(m.GOMAXPROCS))
	layers["fault.replay_s"] = replayTime(m.Trace).Seconds()
	layers["analysis.pruned_frac"] = frac(phaseSum("pruned"), phaseSum("pruned")+trials)
	layers["sid.ref_fi_s"] = phaseS("ref-fi")
	layers["minpsid.search_s"] = phaseS("search-engine")
	layers["minpsid.incubative_fi_s"] = phaseS("incubative-fi")
	layers["minpsid.fitness_evals"] = float64(c["minpsid.fitness_evals"])
	layers["harness.eval_campaign_s"] = phaseS("evaluation")
	if h, ok := m.Registry.Histograms["pipeline.wall_ns.protect"]; ok {
		layers["sid.protect_ms"] = h.Mean() / 1e6
	}
	m.Trace.Walk(func(_ string, s *obs.SpanSnapshot) {
		if s.Name == "exp:fig8" {
			layers["harness.render_ms"] = float64(s.DurNS) / 1e6
		}
	})

	var runs, disk, bytesRead float64
	sizes := kindBytes(filepath.Join(outDir, "cache"))
	for k, v := range c {
		kind, source, ok := strings.Cut(strings.TrimPrefix(k, "pipeline.nodes."), ".")
		if !ok || !strings.HasPrefix(k, "pipeline.nodes.") {
			continue
		}
		switch source {
		case pipeline.SourceRun:
			runs += float64(v)
		case pipeline.SourceDisk:
			disk += float64(v)
			bytesRead += float64(v) * sizes[kind]
		}
	}
	layers["pipeline.tasks_run"] = runs
	layers["pipeline.disk_hit_frac"] = frac(disk, disk+runs)
	layers["pipeline.bytes_read"] = bytesRead
	layers["pipeline.bytes_written"] = float64(dirBytes(filepath.Join(outDir, "cache")))

	rep, err := readReport(filepath.Join(outDir, "fig8.json"))
	if err != nil {
		return err
	}
	if cs := rep.Campaigns; cs != nil {
		layers["fault.golden_cache_hit_frac"] = frac(float64(cs.GoldenHits), float64(cs.GoldenHits+cs.GoldenMisses))
		layers["fault.campaign_cache_hit_frac"] = frac(float64(cs.CampaignHits), float64(cs.CampaignHits+cs.CampaignMisses))
	}

	layers["proc.cpu_s"] = r.cpu.Seconds()
	layers["proc.cpu_util_frac"] = frac(float64(r.cpu), float64(r.wall)*float64(nproc()))
	wall := r.wall.Nanoseconds()
	layers["trace.unattributed_frac"] = 1 - frac(float64(covered(layerIntervals(m.Trace, 0), 0, wall)), float64(wall))

	if err := storeProbes(filepath.Join(outDir, "cache"), filepath.Join(cfg.work, "probe-store"), layers); err != nil {
		return err
	}
	return commonProbes(layers)
}

// readReport decodes one results/<exp>.json metrics report.
func readReport(path string) (*pipeline.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep pipeline.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
