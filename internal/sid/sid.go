// Package sid implements the baseline selective-instruction-duplication
// technique of the paper (§II-C): per-instruction cost (Eq. 1) and benefit
// (Eq. 2) measurement via profiling and fault injection on a reference
// input, 0-1 knapsack instruction selection under a protection-level
// budget, and the code transformation that duplicates selected
// instructions with a compare-and-detect check.
package sid

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Measurement holds the per-instruction profiles SID selection consumes,
// indexed by static instruction ID.
type Measurement struct {
	Cost    []float64 // Eq. 1: dynamic cycles fraction
	DynFrac []float64 // fraction of dynamic instructions
	SDCProb []float64 // per-instruction FI result
	Benefit []float64 // Eq. 2: SDCProb * Cost
	Stats   []fault.InstrStats
	Golden  *fault.Golden
}

// Config bounds the measurement step.
type Config struct {
	Exec           interp.Config
	FaultsPerInstr int   // per-instruction FI trials (paper: 100)
	Seed           int64 // RNG seed for site sampling
	Workers        int   // 0 = GOMAXPROCS
	// Model selects the fault model the measurement campaign injects;
	// nil means the paper's single-bit flip.
	Model fault.Model
	// Cache, if non-nil, memoizes golden runs across measurements (the
	// result is bit-identical either way); Metrics, if non-nil, receives
	// the campaign accounting for this measurement's phase; Obs, if
	// non-nil, receives the campaign's spans and registry metrics.
	Cache   *fault.Cache
	Metrics *fault.PhaseMetrics
	Obs     *obs.Obs
}

// Measure profiles the module under one input and runs per-instruction
// fault injection, producing the cost/benefit profile of SID preparation
// (steps 1-2 of the paper's Fig. 4).
func Measure(m *ir.Module, bind interp.Binding, cfg Config) (*Measurement, error) {
	golden, err := cfg.Cache.Golden(m, bind, cfg.Exec, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	return MeasureWithGolden(m, bind, cfg, golden)
}

// MeasureWithGolden is Measure for callers that already ran the golden
// execution.
func MeasureWithGolden(m *ir.Module, bind interp.Binding, cfg Config, golden *fault.Golden) (*Measurement, error) {
	if cfg.FaultsPerInstr <= 0 {
		cfg.FaultsPerInstr = 100
	}
	c := &fault.Campaign{Mod: m, Bind: bind, Cfg: cfg.Exec, Golden: golden,
		Workers: cfg.Workers, Model: cfg.Model, Metrics: cfg.Metrics, Obs: cfg.Obs}
	stats := c.PerInstruction(cfg.FaultsPerInstr, cfg.Seed)
	return MeasurementFromStats(m, golden, stats), nil
}

// MeasurementFromStats derives the SID cost/benefit model from an
// already-computed per-instruction stats table (either PerInstruction or
// the composed sectional table — the incremental pipeline assembles
// stats per section and builds the measurement through this one path).
func MeasurementFromStats(m *ir.Module, golden *fault.Golden, stats []fault.InstrStats) *Measurement {
	n := m.NumInstrs()
	meas := &Measurement{
		Cost:    make([]float64, n),
		DynFrac: make([]float64, n),
		SDCProb: make([]float64, n),
		Benefit: make([]float64, n),
		Stats:   stats,
		Golden:  golden,
	}
	totalCycles := float64(golden.Cycles)
	totalDyn := float64(golden.DynInstrs)
	for id := 0; id < n; id++ {
		meas.Cost[id] = float64(golden.Profile.InstrCycles[id]) / totalCycles
		meas.DynFrac[id] = float64(golden.Profile.InstrCount[id]) / totalDyn
		meas.SDCProb[id] = stats[id].SDCProb()
		meas.Benefit[id] = meas.SDCProb[id] * meas.Cost[id]
	}
	return meas
}

// Duplicable reports whether SID may duplicate instruction in of the
// finalized module m: it must produce a value, and re-executing it
// immediately must be side-effect free and yield the same result. Calls
// (side effects in the callee) and allocas (a second execution yields a
// different pointer) are excluded, as in LLVM-based SID implementations.
// So is a phi that reads another phi of its block's leading group: its
// copy runs after the group (see LowerSelection), where that operand
// already holds the group's new value. A phi reading its own result is
// duplicable, since the copy then reads the value the phi just wrote.
func Duplicable(m *ir.Module, in *ir.Instr) bool {
	if !in.IsInjectable() || in.Dup {
		return false
	}
	switch in.Op {
	case ir.OpCall, ir.OpAlloca:
		return false
	case ir.OpPhi:
		return !readsGroupPhi(m, in)
	default:
		// All value-returning builtins are pure math; emit builtins are
		// void and already excluded by IsInjectable.
		return true
	}
}

// readsGroupPhi reports whether phi in reads the result of another phi
// of its block's leading group.
func readsGroupPhi(m *ir.Module, in *ir.Instr) bool {
	loc := m.Loc(in.ID)
	b := m.Funcs[loc.Func].Blocks[loc.Block]
	for _, ph := range b.Instrs[:leadingPhis(b)] {
		if ph != in && readsReg(in, ph.Dst) {
			return true
		}
	}
	return false
}

// leadingPhis returns the length of b's leading phi group.
func leadingPhis(b *ir.Block) int {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == ir.OpPhi {
		n++
	}
	return n
}

// readsReg reports whether in reads register r.
func readsReg(in *ir.Instr, r int) bool {
	for _, a := range in.Args {
		if a.Kind == ir.OperReg && a.Reg == r {
			return true
		}
	}
	return false
}

// Selection is the output of instruction selection.
type Selection struct {
	Chosen []int // selected static instruction IDs, ascending
	// Detectors names the detector assigned to each chosen site
	// (parallel to Chosen). Nil means duplication everywhere — the
	// single-detector Select leaves it nil so legacy selections lower
	// through Duplicate unchanged.
	Detectors        []string
	ExpectedCoverage float64 // aggregated benefit share of the selection
	CostUsed         float64 // total Eq.-1 cost of the selection
	TotalBenefit     float64 // benefit mass over all candidates
}

// IsChosen reports whether id is in the (sorted) selection.
func (s *Selection) IsChosen(id int) bool {
	i := sort.SearchInts(s.Chosen, id)
	return i < len(s.Chosen) && s.Chosen[i] == id
}

// Method selects the knapsack algorithm.
type Method uint8

// Selection methods: MethodDP solves the 0-1 knapsack exactly with
// scaled-integer dynamic programming; MethodGreedy uses benefit/cost
// density order (the classic approximation).
const (
	MethodDP Method = iota
	MethodGreedy
)

// dpScale converts cost fractions into integer knapsack weights.
const dpScale = 10000

// knapItem is one selection candidate.
type knapItem struct {
	id      int
	cost    float64
	benefit float64
}

// Select runs instruction selection: maximize total benefit subject to
// total cost <= level (the protection level, e.g. 0.3/0.5/0.7), over the
// duplicable instructions of m with profiles from meas.
func Select(m *ir.Module, meas *Measurement, level float64, method Method) Selection {
	var items []knapItem
	var totalBenefit float64
	for _, in := range m.Instrs {
		if !Duplicable(m, in) {
			continue
		}
		b := meas.Benefit[in.ID]
		totalBenefit += b
		if meas.Golden.Profile.InstrCount[in.ID] == 0 {
			continue
		}
		items = append(items, knapItem{id: in.ID, cost: meas.Cost[in.ID], benefit: b})
	}

	var chosen []int
	if method == MethodGreedy {
		chosen = knapsackGreedy(items, level)
	} else {
		chosen = knapsackDP(items, level)
	}

	sort.Ints(chosen)
	sel := Selection{Chosen: chosen, TotalBenefit: totalBenefit}
	for _, id := range chosen {
		sel.CostUsed += meas.Cost[id]
		if totalBenefit > 0 {
			sel.ExpectedCoverage += meas.Benefit[id] / totalBenefit
		}
	}
	if totalBenefit == 0 {
		// No SDC-prone candidate was observed at all: the protection's
		// expected coverage is (vacuously) complete.
		sel.ExpectedCoverage = 1
	}
	// Guard against floating-point drift in the benefit-share summation.
	if sel.ExpectedCoverage > 1 {
		sel.ExpectedCoverage = 1
	}
	return sel
}

// knapsackGreedy picks items in benefit/cost density order while they fit.
func knapsackGreedy(items []knapItem, capacity float64) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := density(items[order[a]].benefit, items[order[a]].cost)
		db := density(items[order[b]].benefit, items[order[b]].cost)
		if da != db {
			return da > db
		}
		return items[order[a]].id < items[order[b]].id
	})
	var chosen []int
	budget := capacity
	for _, i := range order {
		it := items[i]
		if it.benefit <= 0 {
			continue
		}
		if it.cost <= budget {
			budget -= it.cost
			chosen = append(chosen, it.id)
		}
	}
	return chosen
}

// knapsackDP solves the 0-1 knapsack exactly on dpScale-quantized costs.
func knapsackDP(items []knapItem, capacity float64) []int {
	cap := int(capacity * dpScale)
	if cap < 0 {
		cap = 0
	}
	n := len(items)
	w := make([]int, n)
	for i, it := range items {
		w[i] = int(it.cost*dpScale + 0.5)
	}
	val := make([][]float64, n+1)
	for i := range val {
		val[i] = make([]float64, cap+1)
	}
	for i := 1; i <= n; i++ {
		wi, bi := w[i-1], items[i-1].benefit
		prev, cur := val[i-1], val[i]
		for c := 0; c <= cap; c++ {
			cur[c] = prev[c]
			if bi > 0 && wi <= c {
				if v := prev[c-wi] + bi; v > cur[c] {
					cur[c] = v
				}
			}
		}
	}
	var chosen []int
	c := cap
	for i := n; i >= 1; i-- {
		if val[i][c] != val[i-1][c] {
			chosen = append(chosen, items[i-1].id)
			c -= w[i-1]
		}
	}
	return chosen
}

func density(benefit, cost float64) float64 {
	if cost <= 0 {
		if benefit > 0 {
			return 1e18
		}
		return 0
	}
	return benefit / cost
}
