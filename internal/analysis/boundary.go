package analysis

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/ir"
)

// This file exports the boundary summaries the sectional campaign
// pipeline composes per-section SDC profiles through (DESIGN.md §13).
// For every section of the partition it records the dataflow facts at
// the section's seams: the registers live into each entry block and out
// along each exit edge, the demanded-bit mask of every boundary-crossing
// register, the known bits holding at section entries, and — for
// sections containing calls — the interprocedural parameter/return
// demand summaries of their callees. Two module snapshots whose
// untouched sections agree on content hash AND boundary-summary hash
// present identical seams to a fault injected inside those sections,
// which is the reuse-validity contract of the incremental store.

// BoundaryPoint is one seam of a section: an entry (a block with a
// predecessor outside the section, or the function entry) or an exit
// edge (a branch from a member block to a block outside the section).
type BoundaryPoint struct {
	Block int // the entry block, or the exit edge's source block
	To    int // exit successor block; -1 for entries and returns
	// Regs lists the registers crossing this seam (live-in of the entry
	// block, or live-in of the exit successor), ascending. Demand, Zero,
	// and One are parallel: the demanded-bit mask and known-bits facts of
	// each crossing register.
	Regs   []int
	Demand []uint64
	Zero   []uint64
	One    []uint64
}

// SectionSummary is the composable boundary description of one section.
type SectionSummary struct {
	Section int // index into the partition
	Func    int
	Name    string
	Entries []BoundaryPoint
	Exits   []BoundaryPoint
	// ParamDemand and RetDemand are the enclosing function's
	// interprocedural demand summaries: what a caller's fault can reach
	// through this section's function boundary.
	ParamDemand []uint64
	RetDemand   uint64
	// CalleeParams[i] holds the parameter-demand summary of the i-th
	// distinct callee invoked from inside the section (sorted by callee
	// index); CalleeRets the matching return demands. A callee whose
	// interface facts change therefore changes this section's summary
	// hash even when the section's own text is untouched.
	Callees      []int
	CalleeParams [][]uint64
	CalleeRets   []uint64
}

// Boundaries bundles the summaries of every section of one module
// snapshot, aligned with ir.PartitionSections(m).Sections.
type Boundaries struct {
	Mod  *ir.Module
	Set  *ir.SectionSet
	Secs []SectionSummary
}

type boundaryKey struct{}

// BuildBoundaries returns the memoized boundary summaries of m's current
// finalized snapshot.
func BuildBoundaries(m *ir.Module) *Boundaries {
	return ir.Derived(m, boundaryKey{}, buildBoundaries)
}

func buildBoundaries(m *ir.Module) *Boundaries {
	set := ir.PartitionSections(m)
	out := &Boundaries{Mod: m, Set: set, Secs: make([]SectionSummary, len(set.Sections))}
	dem := BuildDemand(m, BuildDeadStores(m))

	// Per-function facts, computed once and shared by the function's
	// sections.
	type funcFacts struct {
		cfg  *CFG
		live *Liveness
		kbIn []kbState // known-bits in-state per block
	}
	facts := make([]funcFacts, len(m.Funcs))
	for fi, f := range m.Funcs {
		cfg := BuildCFG(f)
		ins, _ := Forward[kbState](cfg, kbProblem{f: f})
		facts[fi] = funcFacts{cfg: cfg, live: BuildLiveness(cfg), kbIn: ins}
	}

	for si, sec := range set.Sections {
		fi := sec.Func
		f := m.Funcs[fi]
		ff := facts[fi]
		member := make(map[int]bool, len(sec.Blocks))
		for _, b := range sec.Blocks {
			member[b] = true
		}
		sum := SectionSummary{Section: si, Func: fi, Name: sec.Name()}

		point := func(block, to, factBlock int) BoundaryPoint {
			p := BoundaryPoint{Block: block, To: to}
			live := ff.live.LiveIn[factBlock]
			for r := 0; r < f.NumRegs; r++ {
				if !live.Has(r) {
					continue
				}
				p.Regs = append(p.Regs, r)
				p.Demand = append(p.Demand, dem.Regs[fi][r])
				kb := ff.kbIn[factBlock][r]
				p.Zero = append(p.Zero, kb.Zero)
				p.One = append(p.One, kb.One)
			}
			return p
		}

		callees := map[int]bool{}
		for _, bi := range sec.Blocks {
			// Entry seam: function entry, or any predecessor outside.
			isEntry := bi == 0
			for _, p := range ff.cfg.Preds[bi] {
				if !member[p] {
					isEntry = true
				}
			}
			if isEntry {
				sum.Entries = append(sum.Entries, point(bi, -1, bi))
			}
			// Exit seams: edges leaving the section. The crossing facts
			// are those holding at the successor's entry.
			for _, s := range ff.cfg.Succs[bi] {
				if !member[s] {
					sum.Exits = append(sum.Exits, point(bi, s, s))
				}
			}
			for _, in := range f.Blocks[bi].Instrs {
				if in.Op == ir.OpCall || in.Op == ir.OpSpawn {
					callees[in.Callee] = true
				}
			}
		}
		sum.ParamDemand = append([]uint64(nil), dem.Param[fi]...)
		sum.RetDemand = dem.Ret[fi]
		for c := range callees {
			sum.Callees = append(sum.Callees, c)
		}
		sort.Ints(sum.Callees)
		for _, c := range sum.Callees {
			sum.CalleeParams = append(sum.CalleeParams, append([]uint64(nil), dem.Param[c]...))
			sum.CalleeRets = append(sum.CalleeRets, dem.Ret[c])
		}
		out.Secs[si] = sum
	}
	return out
}

// HashOf returns the canonical hash of section si's boundary summary.
// Like the section content hash it is free of module-wide instruction
// IDs, so it is stable under renumbering.
func (b *Boundaries) HashOf(si int) [sha256.Size]byte {
	h := sha256.New()
	s := &b.Secs[si]
	fmt.Fprintf(h, "boundary/v1 %s\n", s.Name)
	wp := func(tag string, p *BoundaryPoint) {
		fmt.Fprintf(h, "%s bb%d->%d:", tag, p.Block, p.To)
		for i, r := range p.Regs {
			fmt.Fprintf(h, " r%d d=%x z=%x o=%x", r, p.Demand[i], p.Zero[i], p.One[i])
		}
		fmt.Fprintln(h)
	}
	for i := range s.Entries {
		wp("in", &s.Entries[i])
	}
	for i := range s.Exits {
		wp("out", &s.Exits[i])
	}
	fmt.Fprintf(h, "param %x ret %x\n", s.ParamDemand, s.RetDemand)
	for i, c := range s.Callees {
		// Callee identity by name, not index: renumbering-stable.
		fmt.Fprintf(h, "callee %s param %x ret %x\n",
			b.Mod.Funcs[c].Name, s.CalleeParams[i], s.CalleeRets[i])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// CheckComposition validates the structural proof obligations that make
// per-section profiles composable: every inter-section CFG edge must
// appear exactly once as an exit of its source section and land on an
// entry of its target section, and the two sections must agree on the
// facts crossing that seam. A violation means the partition or the
// summaries are inconsistent and composition would be unsound.
func (b *Boundaries) CheckComposition() error {
	for fi := range b.Mod.Funcs {
		secs := b.Set.FuncSections(fi)
		if len(secs) == 1 {
			continue
		}
		// Index entries by block for each section of the function.
		entryOf := map[int]*BoundaryPoint{}
		secOfBlock := map[int]int{}
		for _, si := range secs {
			for _, blk := range b.Set.Sections[si].Blocks {
				secOfBlock[blk] = si
			}
			for i := range b.Secs[si].Entries {
				e := &b.Secs[si].Entries[i]
				entryOf[e.Block] = e
			}
		}
		for _, si := range secs {
			for i := range b.Secs[si].Exits {
				x := &b.Secs[si].Exits[i]
				tsec, ok := secOfBlock[x.To]
				if !ok || tsec == si {
					return fmt.Errorf("analysis: section %s exit bb%d->bb%d does not leave the section",
						b.Secs[si].Name, x.Block, x.To)
				}
				e, ok := entryOf[x.To]
				if !ok {
					return fmt.Errorf("analysis: section %s exit bb%d->bb%d lands on a non-entry of %s",
						b.Secs[si].Name, x.Block, x.To, b.Secs[tsec].Name)
				}
				if len(e.Regs) != len(x.Regs) {
					return fmt.Errorf("analysis: seam bb%d->bb%d: exit carries %d regs, entry %d",
						x.Block, x.To, len(x.Regs), len(e.Regs))
				}
				for j, r := range x.Regs {
					if e.Regs[j] != r || e.Demand[j] != x.Demand[j] {
						return fmt.Errorf("analysis: seam bb%d->bb%d disagrees on reg %d",
							x.Block, x.To, r)
					}
				}
			}
		}
	}
	return nil
}
