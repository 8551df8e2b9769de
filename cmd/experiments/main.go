// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                 # quick profile, every experiment
//	experiments -exp fig2,table2 -full   # paper-scale fault counts
//	experiments -exp fig6 -bench kmeans,knn
//
// Experiments: table1, fig2, chart2 (ASCII candlesticks), table2, fig3,
// fig5, fig6, chart6, table3, fig7, fig8, fig9 (includes table4),
// overhead (§VIII-A), mtfft (§VIII-B), matrix (detector × fault-model
// true-coverage matrix; not part of all), static-rank (Spearman rank
// correlation of the static propagation-graph SDC score against FI
// ground truth; not part of all).
//
// -fault-model and -detector swap the injected fault model and the
// detector portfolio for every experiment; the defaults (bitflip, dup)
// reproduce the paper's tables byte-for-byte at a fixed seed.
//
// Tables and figures print to stdout; each experiment additionally writes
// a machine-readable metrics report to <out>/<exp>.json, and task
// artifacts persist under <out>/cache so interrupted or repeated runs
// resume instead of re-injecting faults (-cache=false disables). Cached
// or not, the printed tables are byte-identical for a given seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments, or all")
		full     = flag.Bool("full", false, "paper-scale fault counts (slow)")
		medium   = flag.Bool("medium", false, "intermediate fault counts (~1h single-core)")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default: all 11)")
		seed     = flag.Int64("seed", 2022, "experiment seed")
		workers  = flag.Int("workers", 0, "FI worker count (0 = GOMAXPROCS)")
		metrics  = flag.Bool("metrics", false, "report per-phase campaign metrics and cache stats")
		model    = flag.String("fault-model", "", "fault model to inject (bitflip, bitflip2, byteflip, stuckat0, stuckat1, defect; empty = bitflip)")
		detector = flag.String("detector", "", "detector portfolio (dup, inv, cfgsig, comma lists, or all; empty = dup)")
		outDir   = flag.String("out", "results", "directory for per-experiment JSON reports (empty disables)")
		cache    = flag.Bool("cache", true, "persist task artifacts under <out>/cache for resumable reruns")
		incr     = flag.Bool("incremental", false, "key fault-injection artifacts per program section: edits re-run only the sections they touch (defaults off; default runs reproduce the paper byte-for-byte)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event file (Perfetto-loadable) to this path")
		manifest = flag.String("manifest", "", "write a run manifest (span tree + metrics registry) to this path")
	)
	flag.Parse()

	profile := "quick"
	if *medium {
		profile = "medium"
	}
	if *full {
		profile = "full"
	}
	o := options{
		exps:        *exp,
		profile:     profile,
		benches:     *benches,
		seed:        *seed,
		workers:     *workers,
		metrics:     *metrics,
		faultModel:  *model,
		detector:    *detector,
		incremental: *incr,
		resultsDir:  *outDir,
		tracePath:   *traceOut,
		manifest:    *manifest,
		out:         os.Stdout,
	}
	if *cache && *outDir != "" {
		o.cacheDir = filepath.Join(*outDir, "cache")
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// options parameterizes one invocation (flag surface minus the engine,
// which is process-global).
type options struct {
	exps       string
	profile    string
	benches    string
	seed       int64
	workers    int
	metrics    bool
	faultModel string // injected fault model; "" = bitflip
	detector   string // detector portfolio; "" = dup
	// incremental keys FI artifacts per program section (sectional
	// campaigns); off by default.
	incremental bool
	resultsDir  string // per-experiment JSON reports; "" disables
	cacheDir    string // on-disk artifact tier; "" disables
	tracePath   string // Chrome trace_event output; "" disables
	manifest    string // run-manifest output; "" disables
	out         io.Writer
}

func run(o options) error {
	p := harness.Quick()
	switch o.profile {
	case "medium":
		p = harness.Medium()
	case "full":
		p = harness.Full()
	}
	p.Seed = o.seed
	p.Workers = o.workers
	p.FaultModel = o.faultModel
	p.Detector = o.detector
	p.Incremental = o.incremental
	r := harness.NewRunner(p)
	if o.cacheDir != "" {
		if err := r.Pipe.EnableDisk(o.cacheDir); err != nil {
			return err
		}
	}
	var ob *obs.Obs
	if o.tracePath != "" || o.manifest != "" {
		ob = obs.New("experiments")
		r.SetObs(ob)
	}

	bs := benchprog.Eleven()
	if o.benches != "" {
		bs = bs[:0]
		for _, name := range strings.Split(o.benches, ",") {
			b, ok := benchprog.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown benchmark %q", name)
			}
			bs = append(bs, b)
		}
	}

	exps := strings.Split(o.exps, ",")
	if o.exps == "all" {
		exps = []string{"table1", "fig2", "chart2", "table2", "fig3", "fig5",
			"fig6", "chart6", "table3", "fig7", "fig8", "fig9", "overhead",
			"overlap", "errorbars", "mtfft"}
	}

	w := o.out
	for _, e := range exps {
		name := strings.TrimSpace(e)
		before := r.Pipe.NumNodes()
		esp := ob.Start("exp:" + name)
		var err error
		switch name {
		case "table1":
			err = harness.Table1(w)
		case "fig2":
			err = harness.Fig2(r, bs, w)
		case "chart2":
			err = harness.CoverageChart(r, bs, false, w)
		case "chart6":
			err = harness.CoverageChart(r, bs, true, w)
		case "table2":
			err = harness.Table2(r, bs, w)
		case "fig3":
			err = harness.Fig3(r, w)
		case "fig5":
			err = harness.Fig5(w)
		case "fig6":
			err = harness.Fig6(r, bs, w)
		case "table3":
			err = harness.Table3(r, bs, w)
		case "fig7":
			_, err = harness.Fig7(r, bs, w)
		case "fig8":
			err = harness.Fig8(r, bs, w)
		case "fig9", "table4":
			_, err = harness.Fig9(r, w)
		case "overhead":
			err = harness.OverheadVariance(r, bs, w)
		case "overlap":
			err = harness.LevelOverlap(r, bs, w)
		case "errorbars":
			err = harness.ErrorBars(r, bs, w)
		case "mtfft":
			err = harness.MTFFT(r, w)
		case "static-rank":
			err = harness.StaticRank(r, bs, w)
		case "matrix":
			// Detector × fault-model matrix on the first selected benchmark
			// (not part of -exp all: it sweeps every registered model).
			err = harness.DetectorMatrix(r, bs[0], w)
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		esp.End()
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		if o.resultsDir != "" {
			if err := writeReport(r, o, name, before); err != nil {
				return err
			}
		}
	}
	if o.metrics {
		if err := pipeline.RenderMetrics(w, r.Metrics, r.Cache, r.Pipe); err != nil {
			return err
		}
	}
	if ob != nil {
		r.Metrics.Publish(ob.Reg)
		if err := ob.WriteOutputs("experiments", o.seed, analysis.Version, o.manifest, o.tracePath); err != nil {
			return err
		}
	}
	return nil
}

// writeReport emits <resultsDir>/<exp>.json: the task nodes this
// experiment touched (everything recorded since fromNode) plus the
// cumulative store, campaign-cache, and per-phase accounting.
func writeReport(r *harness.Runner, o options, exp string, fromNode int) error {
	nodes := r.Pipe.Nodes()
	if fromNode <= len(nodes) {
		nodes = nodes[fromNode:]
	}
	store := r.Pipe.Stats()
	camp := r.Cache.Stats()
	rep := &pipeline.Report{
		Schema:      pipeline.ReportSchema,
		Tool:        "experiments",
		Experiment:  exp,
		Profile:     o.profile,
		Seed:        o.seed,
		Workers:     o.workers,
		FaultModel:  o.faultModel,
		Detector:    o.detector,
		Incremental: o.incremental,
		CacheDir:    r.Pipe.DiskDir(),
		Nodes:       nodes,
		NodeSummary: pipeline.Summarize(nodes),
		Store:       &store,
		Campaigns:   &camp,
		Phases:      r.Metrics.Snapshots(),
	}
	return pipeline.WriteReport(filepath.Join(o.resultsDir, exp+".json"), rep)
}
