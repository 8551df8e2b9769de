// Inputsearch demonstrates the heart of MINPSID on the FFT benchmark: the
// genetic-algorithm search over program inputs, guided by weighted-CFG
// distance, that uncovers incubative instructions — instructions that look
// harmless under the reference input but cause SDCs under other inputs
// (the paper's Fig. 3 scenario).
package main

import (
	"fmt"
	"log"

	"repro/internal/benchprog"
	"repro/internal/minpsid"
	"repro/internal/sid"
)

func main() {
	b, _ := benchprog.ByName("fft")
	tgt := minpsid.Target{
		Mod:  b.MustModule(),
		Spec: b.Spec,
		Bind: b.Bind,
		Exec: b.ExecConfig(),
	}

	// Step 1: per-instruction fault injection on the reference input.
	fmt.Println("measuring per-instruction SDC probabilities on the reference input...")
	refMeas, err := sid.Measure(tgt.Mod, tgt.Bind(b.Reference), sid.Config{
		Exec: tgt.Exec, FaultsPerInstr: 20, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: GA input search with the Eq.-3 weighted-CFG fitness.
	cfg := minpsid.Config{FaultsPerInstr: 20, MaxInputs: 6, Patience: 2,
		PopSize: 6, MaxGenerations: 4, Seed: 7}
	fmt.Println("searching for inputs that reveal incubative instructions...")
	search := minpsid.Search(tgt, cfg, b.Reference, refMeas)

	for _, tp := range search.Trace {
		fmt.Printf("  input %2d: fitness %8.1f, cumulative incubative %d\n",
			tp.InputIndex, tp.Fitness, tp.Incubative)
	}

	// Step 3: inspect what was found.
	fmt.Printf("\n%d incubative instructions:\n", len(search.Incubative))
	m := tgt.Mod
	for i, id := range search.Incubative {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(search.Incubative)-10)
			break
		}
		fmt.Printf("  [%4d] %-8s ref-benefit %.6f -> max-benefit %.6f\n",
			id, m.Instrs[id].Op, refMeas.Benefit[id], search.MaxBenefit[id])
	}

	// Compare with blind random search on the same budget (Fig. 7).
	cfgRnd := cfg
	cfgRnd.Strategy = minpsid.StrategyRandom
	rnd := minpsid.Search(tgt, cfgRnd, b.Reference, refMeas)
	fmt.Printf("\nGA search found %d incubative instructions; random search found %d (same budget)\n",
		len(search.Incubative), len(rnd.Incubative))
}
