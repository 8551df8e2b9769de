package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
)

// maxAllocsPerBlock bounds what one value-range or known-bits solve may
// allocate per basic block. The forward engine keeps one in-fact and
// one out-fact buffer per block for the whole solve, so the count grows
// with the block count, not with the number of block visits.
const maxAllocsPerBlock = 4

// TestForwardAllocsPerBlock runs BuildRanges and BuildKnownBits on every
// single-assignment benchmark function with at least 15 blocks and
// fails when a solve allocates more than maxAllocsPerBlock per block.
func TestForwardAllocsPerBlock(t *testing.T) {
	checked := 0
	for _, bm := range benchprog.All() {
		m := bm.MustModule()
		fa := analysis.FactsFor(m)
		for fi, f := range m.Funcs {
			c, du := fa.CFGs[fi], fa.DefUses[fi]
			if len(f.Blocks) < 15 || !du.SingleAssignment {
				continue
			}
			checked++
			blocks := float64(len(f.Blocks))
			ranges := testing.AllocsPerRun(10, func() { analysis.BuildRanges(f, c, du) })
			known := testing.AllocsPerRun(10, func() { analysis.BuildKnownBits(f, c) })
			t.Logf("%s/%s: %d blocks, BuildRanges %.1f allocs/block, BuildKnownBits %.1f allocs/block",
				bm.Name, f.Name, len(f.Blocks), ranges/blocks, known/blocks)
			if ranges > maxAllocsPerBlock*blocks {
				t.Errorf("%s/%s: BuildRanges made %.0f allocations over %d blocks (bound %d per block)",
					bm.Name, f.Name, ranges, len(f.Blocks), maxAllocsPerBlock)
			}
			if known > maxAllocsPerBlock*blocks {
				t.Errorf("%s/%s: BuildKnownBits made %.0f allocations over %d blocks (bound %d per block)",
					bm.Name, f.Name, known, len(f.Blocks), maxAllocsPerBlock)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no benchmark function has 15 or more blocks")
	}
}
