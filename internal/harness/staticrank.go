package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/benchprog"
	"repro/internal/sid"
	"repro/internal/stats"
)

// StaticRank reports how well the static flow-heuristic score
// (sid.HeuristicSDCProb) RANKS fault sites against fault-injection
// ground truth: per benchmark, the Spearman rank correlation between
// the static score and the reference measurement's per-instruction SDC
// probability, over the injectable sites the reference input actually
// executed (sites never reached have no ground truth to rank against).
// MINPSID itself ranks sites by fault injection; this experiment
// measures what the FI-free ablation gives up.
func StaticRank(r *Runner, benches []*benchprog.Benchmark, w io.Writer) error {
	fmt.Fprintln(w, "Static-rank: flow-heuristic score vs FI ground truth (Spearman rho)")
	tw := newTable(w)
	fmt.Fprintln(tw, "Benchmark\tSites\tRho\tStaticZero\tFIZero")
	var rhos []float64
	for _, b := range benches {
		ev, err := r.Evaluate(b)
		if err != nil {
			return err
		}
		m := b.MustModule()
		static := sid.HeuristicSDCProb(m)
		var xs, ys []float64
		zeroS, zeroF := 0, 0
		for id, in := range m.Instrs {
			if !in.IsInjectable() || ev.RefMeas.DynFrac[id] <= 0 {
				continue
			}
			xs = append(xs, static[id])
			ys = append(ys, ev.RefMeas.SDCProb[id])
			if static[id] == 0 {
				zeroS++
			}
			if ev.RefMeas.SDCProb[id] == 0 {
				zeroF++
			}
		}
		rho := stats.SpearmanRank(xs, ys)
		if !math.IsNaN(rho) {
			rhos = append(rhos, rho)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%d\t%d\n", b.Name, len(xs), rho, zeroS, zeroF)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "mean rho across %d benchmarks: %.3f\n", len(rhos), stats.Mean(rhos))
	return err
}
