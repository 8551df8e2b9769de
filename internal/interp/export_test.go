package interp

import "repro/internal/ir"

// Test hooks into checkpoint internals, for the checkpoint differential
// suite (package interp_test) to construct its edge-case fault sites.

// Len returns the number of checkpoints held.
func (ck *Checkpoints) Len() int { return len(ck.pts) }

// Bytes returns the memory the checkpoints hold.
func (ck *Checkpoints) Bytes() int64 { return ck.bytes }

// CheckpointFlips returns checkpoint i's flip-opportunity count for
// static instruction id.
func CheckpointFlips(ck *Checkpoints, i, id int) int64 { return ck.pts[i].flip(id) }

// CheckpointLiveCalls returns the static IDs of the result calls whose
// frames are live at checkpoint i, innermost last.
func CheckpointLiveCalls(ck *Checkpoints, i int) []int {
	var ids []int
	for _, fr := range ck.pts[i].frames {
		if fr.callID >= 0 {
			ids = append(ids, int(fr.callID))
		}
	}
	return ids
}

// CheckpointSP returns checkpoint i's stack pointer.
func CheckpointSP(ck *Checkpoints, i int) int { return ck.pts[i].sp }

// SpecFolds returns the static IDs of the instructions m's specialized
// stream replaces with constants.
func SpecFolds(m *ir.Module) []int {
	var ids []int
	for _, cf := range compiledOf(m).funcs {
		for _, ws := range [][2][]iword{{cf.code, cf.spec}, {cf.runs, cf.runsSpec}} {
			for i := range ws[0] {
				if ws[1][i].op == xConst && ws[0][i].op != xConst {
					ids = append(ids, int(ws[0][i].id))
				}
			}
		}
	}
	return ids
}
