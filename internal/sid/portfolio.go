package sid

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/ir"
)

// ParsePortfolio resolves a comma-separated detector list ("dup,inv",
// "all" for every registered detector, "" for the default dup-only
// portfolio) into detectors.
func ParsePortfolio(spec string) ([]Detector, error) {
	switch spec {
	case "":
		return []Detector{DefaultDetector()}, nil
	case "all":
		return Detectors(), nil
	}
	var out []Detector
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		d, ok := DetectorByName(name)
		if !ok {
			return nil, fmt.Errorf("sid: unknown detector %q (have %s)",
				name, strings.Join(DetectorNames(), ", "))
		}
		out = append(out, d)
	}
	return out, nil
}

// mckOption is one detector choice for a site in the multi-choice
// knapsack.
type mckOption struct {
	port    int // index into the portfolio (tie-break order)
	name    string
	cost    float64
	benefit float64
}

// mckItem is one site with its applicable detector options.
type mckItem struct {
	id   int
	opts []mckOption
}

// SelectPortfolio generalizes Select to a detector portfolio under a
// fault model: per site, pick at most one applicable detector (the
// DETOx multi-choice knapsack), maximizing summed benefit — each
// option's benefit is the site's Eq.-2 benefit scaled by the detector's
// model coverage, its cost the Eq.-1 cost scaled by the detector's cost
// factor — subject to total cost <= level.
//
// With a portfolio of exactly {dup} and the default model this
// reproduces Select bit-for-bit: duplication's cost factor and coverage
// are both 1, so every option equals the 0-1 knapsack item, and both
// the greedy order and the DP recurrence degenerate to the
// single-detector forms.
func SelectPortfolio(m *ir.Module, meas *Measurement, level float64, method Method,
	portfolio []Detector, model fault.Model) Selection {

	if len(portfolio) == 0 {
		portfolio = []Detector{DefaultDetector()}
	}
	if model == nil {
		model = fault.DefaultModel()
	}
	fa := analysis.FactsFor(m)

	var items []mckItem
	var totalBenefit float64
	for _, in := range m.Instrs {
		if !Duplicable(m, in) {
			continue
		}
		totalBenefit += meas.Benefit[in.ID]
		if meas.Golden.Profile.InstrCount[in.ID] == 0 {
			continue
		}
		it := mckItem{id: in.ID}
		for pi, d := range portfolio {
			if !d.Applicable(fa, in.ID) {
				continue
			}
			it.opts = append(it.opts, mckOption{
				port:    pi,
				name:    d.Name(),
				cost:    meas.Cost[in.ID] * d.CostFactor(fa, in.ID),
				benefit: meas.Benefit[in.ID] * d.Coverage(fa, in.ID, model),
			})
		}
		if len(it.opts) > 0 {
			items = append(items, it)
		}
	}

	var picks []mckPick
	if method == MethodGreedy {
		picks = mckGreedy(items, level)
	} else {
		picks = mckDP(items, level)
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].id < picks[b].id })

	sel := Selection{TotalBenefit: totalBenefit}
	for _, p := range picks {
		sel.Chosen = append(sel.Chosen, p.id)
		sel.Detectors = append(sel.Detectors, p.opt.name)
		sel.CostUsed += p.opt.cost
		if totalBenefit > 0 {
			sel.ExpectedCoverage += p.opt.benefit / totalBenefit
		}
	}
	if totalBenefit == 0 {
		sel.ExpectedCoverage = 1
	}
	if sel.ExpectedCoverage > 1 {
		sel.ExpectedCoverage = 1
	}
	return sel
}

// mckPick is one (site, detector option) assignment.
type mckPick struct {
	id  int
	opt mckOption
}

// mckGreedy flattens every (site, option) pair into density order and
// takes the densest fitting option per unassigned site — the
// multi-choice extension of knapsackGreedy, identical to it when every
// site has exactly one option.
func mckGreedy(items []mckItem, capacity float64) []mckPick {
	type flat struct {
		item int
		opt  mckOption
	}
	var all []flat
	for i, it := range items {
		for _, o := range it.opts {
			all = append(all, flat{item: i, opt: o})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		da := density(all[a].opt.benefit, all[a].opt.cost)
		db := density(all[b].opt.benefit, all[b].opt.cost)
		if da != db {
			return da > db
		}
		if items[all[a].item].id != items[all[b].item].id {
			return items[all[a].item].id < items[all[b].item].id
		}
		return all[a].opt.port < all[b].opt.port
	})
	assigned := make(map[int]bool, len(items))
	var picks []mckPick
	budget := capacity
	for _, f := range all {
		if f.opt.benefit <= 0 || assigned[f.item] {
			continue
		}
		if f.opt.cost <= budget {
			budget -= f.opt.cost
			assigned[f.item] = true
			picks = append(picks, mckPick{id: items[f.item].id, opt: f.opt})
		}
	}
	return picks
}

// mckDP solves the multi-choice knapsack exactly on dpScale-quantized
// costs: per site, the recurrence considers skipping the site or taking
// each option, and the traceback re-derives the first option (in
// portfolio order) that explains the optimum — so with one option per
// site it reproduces knapsackDP's selections exactly.
func mckDP(items []mckItem, capacity float64) []mckPick {
	cap := int(capacity * dpScale)
	if cap < 0 {
		cap = 0
	}
	n := len(items)
	w := make([][]int, n)
	for i, it := range items {
		w[i] = make([]int, len(it.opts))
		for j, o := range it.opts {
			w[i][j] = int(o.cost*dpScale + 0.5)
		}
	}
	val := make([][]float64, n+1)
	for i := range val {
		val[i] = make([]float64, cap+1)
	}
	for i := 1; i <= n; i++ {
		prev, cur := val[i-1], val[i]
		for c := 0; c <= cap; c++ {
			cur[c] = prev[c]
			for j, o := range items[i-1].opts {
				if o.benefit > 0 && w[i-1][j] <= c {
					if v := prev[c-w[i-1][j]] + o.benefit; v > cur[c] {
						cur[c] = v
					}
				}
			}
		}
	}
	var picks []mckPick
	c := cap
	for i := n; i >= 1; i-- {
		if val[i][c] == val[i-1][c] {
			continue
		}
		for j, o := range items[i-1].opts {
			if o.benefit > 0 && w[i-1][j] <= c &&
				val[i-1][c-w[i-1][j]]+o.benefit == val[i][c] {
				picks = append(picks, mckPick{id: items[i-1].id, opt: o})
				c -= w[i-1][j]
				break
			}
		}
	}
	return picks
}

// lowerState carries cross-block insertions during LowerSelection:
// detectors that assert on control-flow edges append code at successor
// block heads, applied after the main walk so in-block indices stay
// stable.
type lowerState struct {
	heads map[[2]int][]*ir.Instr // (func, block) -> instrs for the head
}

// atBlockHead schedules instrs for insertion at the head of block bi of
// function fi, after the leading phi group.
func (st *lowerState) atBlockHead(fi, bi int, instrs []*ir.Instr) {
	if st.heads == nil {
		st.heads = make(map[[2]int][]*ir.Instr)
	}
	key := [2]int{fi, bi}
	st.heads[key] = append(st.heads[key], instrs...)
}

// LowerSelection applies a heterogeneous selection to m: every chosen
// site is protected with its assigned detector (sel.Detectors parallel
// to sel.Chosen; a nil Detectors slice means duplication everywhere,
// which is Duplicate). The returned module is finalized; use InstrMap
// for the ID translation.
func LowerSelection(m *ir.Module, sel Selection) *ir.Module {
	detOf := make(map[int]Detector, len(sel.Chosen))
	for i, id := range sel.Chosen {
		d := DefaultDetector()
		if i < len(sel.Detectors) && sel.Detectors[i] != "" {
			dd, ok := DetectorByName(sel.Detectors[i])
			if !ok {
				panic(fmt.Sprintf("sid: selection names unknown detector %q", sel.Detectors[i]))
			}
			d = dd
		}
		detOf[id] = d
	}
	fa := analysis.FactsFor(m)
	cp := m.Clone() // clone preserves IDs (same instruction order)
	st := &lowerState{}
	for _, f := range cp.Funcs {
		for _, b := range f.Blocks {
			// Protection of the leading phis is held until the group
			// ends: code between two phis would split the group, and
			// the phis after it would lose their parallel semantics.
			lead := leadingPhis(b)
			out := make([]*ir.Instr, 0, len(b.Instrs))
			var held []*ir.Instr
			for i, in := range b.Instrs {
				out = append(out, in)
				if d, ok := detOf[in.ID]; ok && d.Applicable(fa, in.ID) {
					held = append(held, d.lower(st, fa, f, in)...)
				}
				if i >= lead-1 {
					out = append(out, held...)
					held = held[:0]
				}
			}
			b.Instrs = out
		}
	}
	// Apply edge-assertion insertions after the leading phi group of
	// each target block (phis must stay leading for the interpreter's
	// parallel phi-group execution).
	for key, instrs := range st.heads {
		b := cp.Funcs[key[0]].Blocks[key[1]]
		phis := leadingPhis(b)
		rest := append([]*ir.Instr(nil), b.Instrs[phis:]...)
		b.Instrs = append(append(b.Instrs[:phis:phis], instrs...), rest...)
	}
	cp.Finalize()
	return cp
}

// InstrMap maps each original-module instruction ID to its ID in a
// protected module produced by LowerSelection (or Duplicate) on the
// same original: protection only inserts Dup-marked instructions, so
// pairing the i-th non-Dup instruction of prot with the i-th
// instruction of orig recovers the translation.
func InstrMap(orig, prot *ir.Module) map[int]int {
	mapping := make(map[int]int, orig.NumInstrs())
	i := 0
	for _, in := range prot.Instrs {
		if in.Dup {
			continue
		}
		mapping[orig.Instrs[i].ID] = in.ID
		i++
	}
	return mapping
}
