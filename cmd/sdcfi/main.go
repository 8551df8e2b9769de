// Command sdcfi runs a fault-injection campaign (the LLFI-equivalent
// step) on a built-in benchmark: it injects faults of a chosen model
// into random dynamic instructions and reports the outcome distribution
// with 95% confidence intervals.
//
// Usage:
//
//	sdcfi -bench fft -n 1000 [-input ref | -input-seed 7] [-seed 1]
//	sdcfi -bench fft -fault-model byteflip                  # swap the model
//	sdcfi -bench fft -level 0.5 -detector inv,dup           # protect, then
//	                                                        # measure true coverage
//
// With -level > 0 the benchmark is first protected with baseline SID at
// that level using the given detector portfolio, and the campaign
// additionally reports the paper-definition SDC coverage of the
// protection under the chosen fault model. The defaults (-fault-model
// bitflip, -detector dup) reproduce the original single-bit/duplication
// pipeline byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/sid"
	"repro/internal/stats"
)

func main() {
	if code, handled := dispatch(os.Args[1:]); handled {
		os.Exit(code)
	}
	var (
		bench     = flag.String("bench", "fft", "benchmark name")
		n         = flag.Int("n", 1000, "number of fault-injection trials")
		input     = flag.String("input", "ref", "input selection: ref or random")
		inputSeed = flag.Int64("input-seed", 7, "seed for -input random")
		seed      = flag.Int64("seed", 1, "fault-site sampling seed")
		model     = flag.String("fault-model", "", "fault model to inject (bitflip, bitflip2, byteflip, stuckat0, stuckat1, defect; empty = bitflip)")
		detector  = flag.String("detector", "", "detector portfolio for -level protection (dup, inv, cfgsig, comma lists, or all; empty = dup)")
		level     = flag.Float64("level", 0, "protect at this level first and report true SDC coverage (0 = campaign only)")
		metrics   = flag.Bool("metrics", false, "report campaign metrics (outcome histogram, wall/busy time, workers)")
		incr      = flag.Bool("incremental", false, "run the campaign sectionally: per-section trial apportionment and RNG sub-streams, with a per-section breakdown")
		jsonOut   = flag.String("json", "", "write a machine-readable metrics report to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event file (Perfetto-loadable) to this path")
		manifest  = flag.String("manifest", "", "write a run manifest (span tree + metrics registry) to this path")
		resultOut = flag.String("result-out", "", "write the canonical campaign result document to this path (requires -incremental; byte-comparable to a server job result)")
	)
	flag.Parse()

	o := options{
		bench: *bench, n: *n, input: *input, inputSeed: *inputSeed, seed: *seed,
		model: *model, detector: *detector, level: *level,
		metrics: *metrics, incremental: *incr,
		jsonOut: *jsonOut, traceOut: *traceOut, manifest: *manifest,
		resultOut: *resultOut,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sdcfi:", err)
		os.Exit(1)
	}
}

// options is the flag surface of one invocation.
type options struct {
	bench     string
	n         int
	input     string
	inputSeed int64
	seed      int64
	model     string
	detector  string
	level     float64
	metrics   bool
	// incremental switches the characterization campaign to the
	// sectional planner (per-section sub-streams + composition).
	incremental bool
	jsonOut     string
	traceOut    string
	manifest    string
	// resultOut writes the canonical result document (server.Result)
	// after an incremental campaign — the direct-path half of the CI
	// client/server bit-identity check.
	resultOut string
}

func run(o options) error {
	prog, err := core.FromBenchmark(o.bench)
	if err != nil {
		return err
	}
	var model fault.Model
	if o.model != "" {
		var ok bool
		if model, ok = fault.ModelByName(o.model); !ok {
			return fmt.Errorf("unknown fault model %q (have %s)",
				o.model, strings.Join(fault.ModelNames(), ", "))
		}
	}
	in := prog.Reference
	if o.input == "random" {
		in = prog.RandomInput(rand.New(rand.NewSource(o.inputSeed)))
	}
	fmt.Printf("benchmark %s, input: %s\n", o.bench, prog.Spec.String(in))
	if o.model != "" {
		fmt.Printf("fault model: %s\n", o.model)
	}

	var m *fault.Metrics
	if o.metrics || o.jsonOut != "" {
		m = fault.NewMetrics()
	}
	var ob *obs.Obs
	if o.traceOut != "" || o.manifest != "" {
		ob = obs.New("sdcfi")
		interp.SetObs(ob.Reg)
		defer interp.SetObs(nil)
	}
	csp := ob.Start("campaign:" + o.bench)
	var res fault.CampaignResult
	var profiles []fault.SectionProfile
	if o.incremental {
		res, profiles, err = prog.InjectionCampaignSectional(in, o.n, o.seed, model, nil, m.Phase("program-fi"), ob.At(csp))
	} else {
		res, err = prog.InjectionCampaignModel(in, o.n, o.seed, model, nil, m.Phase("program-fi"), ob.At(csp))
	}
	csp.End()
	if err != nil {
		return err
	}
	fmt.Printf("trials: %d\n", res.Trials)
	if res.Shortfall > 0 {
		fmt.Printf("shortfall: %d of %d requested trials could not be drawn\n", res.Shortfall, res.Requested)
	}
	for _, oc := range []fault.Outcome{fault.OutcomeBenign, fault.OutcomeSDC,
		fault.OutcomeCrash, fault.OutcomeHang, fault.OutcomeDetected} {
		k := res.Counts[oc]
		lo, hi := stats.WilsonInterval(k, res.Trials)
		fmt.Printf("  %-9s %6d  (%6.2f%%, 95%% CI [%.2f%%, %.2f%%])\n",
			oc, k, 100*res.Rate(oc), lo*100, hi*100)
	}
	if o.resultOut != "" {
		if !o.incremental {
			return fmt.Errorf("-result-out requires -incremental (the server composes campaigns sectionally)")
		}
		doc := server.BuildResult(o.bench, prog.Spec.String(in), o.seed, o.model, res, profiles)
		if err := os.WriteFile(o.resultOut, server.EncodeResult(doc), 0o644); err != nil {
			return err
		}
	}
	if len(profiles) > 0 {
		fmt.Printf("sections: %d with apportioned trials\n", len(profiles))
		for _, pr := range profiles {
			sr := pr.Result()
			fmt.Printf("  %-24s trials %5d  sdc %5d  detected %5d\n",
				pr.Name, sr.Trials, sr.Counts[fault.OutcomeSDC], sr.Counts[fault.OutcomeDetected])
		}
	}
	if o.level > 0 {
		if err := runProtected(prog, in, o); err != nil {
			return err
		}
	}
	if o.metrics {
		if err := pipeline.RenderMetrics(os.Stdout, m, nil, nil); err != nil {
			return err
		}
	}
	if o.jsonOut != "" {
		rep := &pipeline.Report{
			Schema:      pipeline.ReportSchema,
			Tool:        "sdcfi",
			Seed:        o.seed,
			FaultModel:  o.model,
			Detector:    o.detector,
			Incremental: o.incremental,
			Phases:      m.Snapshots(),
		}
		if err := pipeline.WriteReport(o.jsonOut, rep); err != nil {
			return err
		}
	}
	if ob != nil {
		m.Publish(ob.Reg)
		if err := ob.WriteOutputs("sdcfi", o.seed, analysis.Version, o.manifest, o.traceOut); err != nil {
			return err
		}
	}
	return nil
}

// runProtected implements the -level path: protect with baseline SID at
// o.level using the requested detector portfolio, then measure the
// paper-definition true SDC coverage under the same fault model.
func runProtected(prog *core.Program, in inputgen.Input, o options) error {
	opts := core.QuickOptions()
	opts.Seed = o.seed
	opts.FaultModel = o.model
	opts.Detector = o.detector
	prot, err := prog.Protect(core.TechniqueSID, o.level, opts)
	if err != nil {
		return err
	}
	byDet := map[string]int{}
	for i := range prot.Chosen {
		name := "dup"
		if i < len(prot.Detectors) {
			name = prot.Detectors[i]
		}
		byDet[name]++
	}
	fmt.Printf("protection: level %.0f%%, %d sites (", o.level*100, len(prot.Chosen))
	for i, name := range sid.DetectorNames() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", name, byDet[name])
	}
	fmt.Printf("), expected coverage %.2f%%\n", prot.ExpectedCoverage*100)
	tc, err := prot.EvaluateTrueCoverage(in, o.n, o.seed)
	if err != nil {
		return err
	}
	if tc.Defined {
		fmt.Printf("true SDC coverage: %.2f%% (%d of %d SDC faults mitigated)\n",
			tc.Coverage*100, tc.Result.Mitigated, tc.Result.SDCFaults)
	} else {
		fmt.Println("true SDC coverage: undefined (no SDC fault observed)")
	}
	return nil
}
