// Command minpsid protects one of the built-in benchmarks with baseline
// SID or MINPSID at a chosen protection level and reports the selection,
// the expected SDC coverage, the incubative instructions found, and the
// one-time analysis cost.
//
// Usage:
//
//	minpsid -bench kmeans -tech minpsid -level 0.5 [-quick] [-seed 1] [-dump]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/minpsid"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sid"
)

func main() {
	var (
		bench    = flag.String("bench", "kmeans", "benchmark name (see -list)")
		tech     = flag.String("tech", "minpsid", "protection technique: sid or minpsid")
		level    = flag.Float64("level", 0.5, "protection level (fraction of dynamic cycles)")
		quick    = flag.Bool("quick", true, "use reduced fault-injection budgets")
		seed     = flag.Int64("seed", 1, "random seed")
		dump     = flag.Bool("dump", false, "dump the protected IR module")
		model    = flag.String("fault-model", "", "fault model to tune for and inject (bitflip, bitflip2, byteflip, stuckat0, stuckat1, defect; empty = bitflip)")
		detector = flag.String("detector", "", "detector portfolio (dup, inv, cfgsig, comma lists, or all; empty = dup)")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		metrics  = flag.Bool("metrics", false, "report per-phase campaign metrics and cache stats")
		jsonOut  = flag.String("json", "", "write a machine-readable metrics report to this file")
		analyze  = flag.Bool("analyze", false, "print the static SDC-masking triage report for -bench and exit")
		incr     = flag.Bool("incremental", false, "key fault-injection artifacts per program section (sectional campaigns); defaults off and reproduces the paper byte-for-byte")
		cacheDir = flag.String("cache-dir", "", "persist task artifacts under this directory for resumable (and incremental) reruns")
		traceOut = flag.String("trace", "", "write a Chrome trace_event file (Perfetto-loadable) to this path")
		manifest = flag.String("manifest", "", "write a run manifest (span tree + metrics registry) to this path")
	)
	flag.Parse()

	if *list {
		for _, n := range core.BenchmarkNames() {
			fmt.Println(n)
		}
		return
	}

	if *analyze {
		if err := runAnalyze(*bench, *seed, *quick, *incr, *model, *jsonOut, *cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "minpsid:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*bench, *tech, *level, *quick, *seed, *model, *detector, *dump, *metrics, *incr, *jsonOut, *traceOut, *manifest, *cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "minpsid:", err)
		os.Exit(1)
	}
}

// runAnalyze implements -analyze: the triage of one benchmark module as
// a human-readable table, plus — with -incremental — the per-section
// partition table (shape, provably-masked share, content-hash prefix,
// and per-section artifact cache status when -cache-dir points at a
// store). Optionally both are embedded in the shared JSON report.
func runAnalyze(bench string, seed int64, quick, incremental bool, model, jsonOut, cacheDir string) error {
	prog, err := core.FromBenchmark(bench)
	if err != nil {
		return err
	}
	rep := analysis.TriageFor(prog.Module).Report()
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	var secs *pipeline.SectionalAnalysis
	if incremental {
		var store *pipeline.DiskStore
		if cacheDir != "" {
			if store, err = pipeline.NewDiskStore(cacheDir); err != nil {
				return err
			}
		}
		opts := core.DefaultOptions()
		if quick {
			opts = core.QuickOptions()
		}
		tgt := minpsid.Target{Mod: prog.Module, Spec: prog.Spec, Bind: prog.Bind, Exec: prog.Exec}
		secs, err = pipeline.BuildSectionalAnalysis(tgt, prog.Reference,
			opts.FaultsPerInstr, seed, model, store)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := secs.Render(os.Stdout); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		return pipeline.WriteReport(jsonOut, &pipeline.Report{
			Schema:   pipeline.ReportSchema,
			Tool:     "minpsid",
			Seed:     seed,
			Analysis: rep,
			Sections: secs,
		})
	}
	return nil
}

func run(bench, techName string, level float64, quick bool, seed int64, model, detector string, dump, metrics, incremental bool, jsonOut, traceOut, manifestOut, cacheDir string) error {
	technique, err := core.ParseTechnique(techName)
	if err != nil {
		return err
	}
	prog, err := core.FromBenchmark(bench)
	if err != nil {
		return err
	}

	opts := core.DefaultOptions()
	if quick {
		opts = core.QuickOptions()
	}
	opts.Seed = seed
	opts.FaultModel = model
	opts.Detector = detector
	opts.Incremental = incremental
	if metrics || jsonOut != "" {
		opts.Cache = fault.NewCache(0)
		opts.Metrics = fault.NewMetrics()
	}
	// The protection runs as a task graph; keep the pipeline so the
	// metrics output can report its nodes.
	pipe := pipeline.NewMem(0)
	if cacheDir != "" {
		if err := pipe.EnableDisk(cacheDir); err != nil {
			return err
		}
	}
	opts.Pipe = pipe
	var ob *obs.Obs
	if traceOut != "" || manifestOut != "" {
		ob = obs.New("minpsid")
		opts.Obs = ob
		interp.SetObs(ob.Reg)
		defer interp.SetObs(nil)
		if opts.Metrics == nil {
			opts.Metrics = fault.NewMetrics()
		}
	}

	fmt.Printf("protecting %s with %s at %.0f%% level (faults/instr=%d)\n",
		bench, technique, level*100, opts.FaultsPerInstr)
	if model != "" || detector != "" {
		fmt.Printf("fault model: %s, detector portfolio: %s\n",
			pipeline.NormModel(model), pipeline.NormDetector(detector))
	}

	prot, err := prog.Protect(technique, level, opts)
	if err != nil {
		return err
	}

	fmt.Printf("selected instructions:  %d of %d\n", len(prot.Chosen), prog.Module.NumInstrs())
	if len(prot.Detectors) > 0 {
		byDet := map[string]int{}
		for _, d := range prot.Detectors {
			byDet[d]++
		}
		fmt.Print("detector assignment:    ")
		first := true
		for _, name := range sid.DetectorNames() {
			if byDet[name] == 0 {
				continue
			}
			if !first {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", name, byDet[name])
			first = false
		}
		fmt.Println()
	}
	fmt.Printf("expected SDC coverage:  %.2f%%\n", prot.ExpectedCoverage*100)
	if technique == core.TechniqueMINPSID {
		fmt.Printf("incubative instructions: %d\n", len(prot.Incubative))
		fmt.Printf("analysis time: ref-FI %.2fs, search engine %.2fs, incubative-FI %.2fs (total %.2fs)\n",
			prot.Timing.RefFI.Seconds(), prot.Timing.SearchEngine.Seconds(),
			prot.Timing.IncubativeFI.Seconds(), prot.Timing.Total().Seconds())
	}
	fmt.Printf("protected module: %d instructions (+%d)\n",
		prot.Module.NumInstrs(), prot.Module.NumInstrs()-prog.Module.NumInstrs())

	// Sanity: the protected binary behaves identically on the reference.
	orig := prog.Run(prog.Reference)
	protRun := core.Program{Name: prog.Name, Module: prot.Module, Spec: prog.Spec,
		Reference: prog.Reference, Bind: prog.Bind, Exec: prog.Exec}
	after := protRun.Run(prog.Reference)
	if len(orig.Output) != len(after.Output) {
		return fmt.Errorf("protected output length differs: %d vs %d", len(orig.Output), len(after.Output))
	}
	for i := range orig.Output {
		if orig.Output[i] != after.Output[i] {
			return fmt.Errorf("protected output differs at %d", i)
		}
	}
	fmt.Printf("verification: protected output matches original (%d words); dyn instrs %d -> %d (+%.1f%%)\n",
		len(orig.Output), orig.DynInstrs, after.DynInstrs,
		100*float64(after.DynInstrs-orig.DynInstrs)/float64(orig.DynInstrs))

	if metrics {
		if err := pipeline.RenderMetrics(os.Stdout, opts.Metrics, opts.Cache, pipe); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		nodes := pipe.Nodes()
		store := pipe.Stats()
		camp := opts.Cache.Stats()
		rep := &pipeline.Report{
			Schema:      pipeline.ReportSchema,
			Tool:        "minpsid",
			Seed:        seed,
			FaultModel:  model,
			Detector:    detector,
			Nodes:       nodes,
			NodeSummary: pipeline.Summarize(nodes),
			Store:       &store,
			Campaigns:   &camp,
			Phases:      opts.Metrics.Snapshots(),
		}
		if err := pipeline.WriteReport(jsonOut, rep); err != nil {
			return err
		}
	}

	if ob != nil {
		opts.Metrics.Publish(ob.Reg)
		if err := ob.WriteOutputs("minpsid", seed, analysis.Version, manifestOut, traceOut); err != nil {
			return err
		}
	}

	if dump {
		fmt.Println(prot.Module.String())
	}
	return nil
}
