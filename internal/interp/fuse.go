package interp

import (
	"fmt"
	"sort"
)

// This file holds the fusion vocabulary of the compiled tier: which image
// opcodes may join a superinstruction run, which are pure (cannot trap, so
// a run of them can be accounted in bulk), and the profile-weighted
// sequence miner that reports which opcode n-grams dominate the dynamic
// stream. The fusion templates in compile.go are parametric — any eligible
// sequence fuses, whatever its opcodes — so mining is an observability and
// validation tool (the tests assert the templates cover the hot stream)
// rather than a template selector.

// Compiled-tier opcodes, contiguous after the image opcodes so fused and
// plain words index one handler table (dispatch.go).
const (
	// xRun executes b consecutive straight-line value ops stored in the
	// side table cfunc.runs starting at a, in one dispatch. c != 0 marks a
	// pure run (no constituent can trap) whose total cycles are
	// precomputed in cyc.
	xRun xop = xTrapOp + 1 + iota
	// xCmpBr is a fused compare+cond-branch: the comparison (kind in bfn,
	// operands a/b, result slot dst, accounting id/cyc) immediately
	// followed by its conditional branch (accounting id2/cyc2, edges
	// ex0/ex1). The branch re-reads the written result, so a fault flip of
	// the comparison still redirects control.
	xCmpBr
	// xConst is a specialized value op: the known-bits lattice proved the
	// result constant on fault-free runs, so the op becomes a move from
	// const-pool slot a (accounting unchanged). Only emitted into the
	// no-fault code stream (cfunc.spec).
	xConst
	// xRunBr fuses a whole block tail [value-ops..., br]: b consecutive
	// run constituents at cfunc.runs[a:], then an unconditional branch
	// (accounting id2/cyc2, edge ex0) — one dispatch per loop-body block.
	// Run purity is marked like xRun (c/cyc).
	xRunBr
	// xRunCmpBr fuses [value-ops..., cmp, condbr]: b run constituents at
	// cfunc.runs[a:], the comparison word stored as an extra constituent
	// at cfunc.runs[a+b] (carrying its own dst/a/b/cyc/id/tbits), and the
	// conditional branch in the header (id2/cyc2, edges ex0/ex1). The
	// branch re-reads the written comparison result, so a fault flip of
	// the cmp still redirects control.
	xRunCmpBr
	// xGAGep and xGepLoad are paired run constituents (they appear only
	// inside run side tables, never at dispatch level): two adjacent
	// dependent ops — globaladdr feeding gep, gep feeding load, the two
	// hottest mined 2-grams — executed as one constituent. The first
	// half keeps the word's usual fields (dst/a/b/id/cyc/tbits); the
	// second half's destination, accounting, and flip width live in
	// ex0/id2/cyc2/c. Both halves remain distinct dynamic instructions
	// and fault sites.
	xGAGep
	xGepLoad

	xNumOps int = iota + int(xTrapOp) + 1
)

// maxRunLen caps one xRun's constituent count: it bounds the int16 cycle
// sum (worst case 50 cycles/op) and the bulk hang-budget pre-check window.
const maxRunLen = 32

// runOp reports whether op may be a constituent of an xRun: a
// straight-line value op whose execution touches only the frame's
// register file, machine memory, and the runner's global tables. Control
// transfer, frame and thread manipulation, output, and fused ops stay
// individual words.
func runOp(op xop) bool {
	switch op {
	case xAdd, xSub, xMul, xDiv, xRem, xAnd, xOr, xXor, xShl, xShr,
		xFAdd, xFSub, xFMul, xFDiv,
		xICmpEQ, xICmpNE, xICmpLT, xICmpLE, xICmpGT, xICmpGE,
		xFCmpEQ, xFCmpNE, xFCmpLT, xFCmpLE, xFCmpGT, xFCmpGE,
		xIToF, xFToI, xLoad, xStore, xGEP, xGlobalAddr, xArrayLen,
		xSelect, xSqrt, xFabs, xExp, xLog, xSin, xCos, xPow, xFloor, xIAbs,
		xConst:
		return true
	}
	return false
}

// pureOp reports whether op can never trap: a run of pure ops accounts
// its dynamic instructions and cycles in one bulk update (after a single
// hang-budget pre-check) instead of per constituent.
func pureOp(op xop) bool {
	switch op {
	case xDiv, xRem, xFToI, xLoad, xStore:
		return false
	}
	return runOp(op)
}

// cmpOp reports whether op is a comparison eligible for cmp+br fusion.
func cmpOp(op xop) bool { return op >= xICmpEQ && op <= xFCmpGE }

// pairOp reports whether op is a paired run constituent carrying two
// dynamic instructions (second half in ex0/id2/cyc2/c).
func pairOp(op xop) bool { return op == xGAGep || op == xGepLoad }

// xopNames spells image and compiled opcodes for mining reports and
// diagnostics.
var xopNames = map[xop]string{
	xAdd: "add", xSub: "sub", xMul: "mul", xDiv: "div", xRem: "rem",
	xAnd: "and", xOr: "or", xXor: "xor", xShl: "shl", xShr: "shr",
	xFAdd: "fadd", xFSub: "fsub", xFMul: "fmul", xFDiv: "fdiv",
	xICmpEQ: "icmp.eq", xICmpNE: "icmp.ne", xICmpLT: "icmp.lt",
	xICmpLE: "icmp.le", xICmpGT: "icmp.gt", xICmpGE: "icmp.ge",
	xFCmpEQ: "fcmp.eq", xFCmpNE: "fcmp.ne", xFCmpLT: "fcmp.lt",
	xFCmpLE: "fcmp.le", xFCmpGT: "fcmp.gt", xFCmpGE: "fcmp.ge",
	xIToF: "itof", xFToI: "ftoi",
	xAlloca: "alloca", xLoad: "load", xStore: "store", xGEP: "gep",
	xGlobalAddr: "globaladdr", xArrayLen: "arraylen",
	xBr: "br", xCondBr: "condbr", xRet: "ret", xRetVoid: "retvoid",
	xEntryPhi: "entryphi", xLonePhi: "lonephi", xMidPhi: "midphi",
	xCall: "call", xSelect: "select", xSpawn: "spawn", xJoin: "join",
	xDetect: "detect", xEmit: "emit",
	xSqrt: "sqrt", xFabs: "fabs", xExp: "exp", xLog: "log",
	xSin: "sin", xCos: "cos", xPow: "pow", xFloor: "floor", xIAbs: "iabs",
	xCmpEqDetect: "cmpeq.detect", xTrapOp: "trap",
	xRun: "run", xCmpBr: "cmp.br", xConst: "const",
	xRunBr: "run.br", xRunCmpBr: "run.cmp.br",
	xGAGep: "ga.gep", xGepLoad: "gep.load",
}

func xopName(op xop) string {
	if n, ok := xopNames[op]; ok {
		return n
	}
	return fmt.Sprintf("xop(%d)", uint8(op))
}

// MinedSeq is one opcode n-gram observed in the image's straight-line
// code, weighted by how often its enclosing block executed.
type MinedSeq struct {
	Ops     string // space-joined opcode names, e.g. "load fmul fadd"
	Len     int
	Static  int   // occurrences in the static code
	Dynamic int64 // occurrences weighted by block execution count
}

// MineSequences scans every block of img for consecutive fusable value
// ops and returns the n-grams of length 2..maxLen ordered by descending
// dynamic weight (ties by opcode string). prof supplies block execution
// counts from a profiled run; a nil prof weights every block once, so the
// ranking is purely static. The compiled tier's templates are parametric,
// so the miner validates coverage rather than selecting patterns; tests
// assert the fused templates dominate the mined hot stream.
func MineSequences(img *Image, prof *Profile, maxLen int) []MinedSeq {
	if maxLen < 2 {
		maxLen = 2
	}
	acc := make(map[string]*MinedSeq)
	for _, ifn := range img.funcs {
		if len(ifn.blockOff) == 0 {
			continue
		}
		for bi := 0; bi+1 < len(ifn.blockOff); bi++ {
			weight := int64(1)
			if prof != nil {
				weight = prof.BlockCount[img.mod.GlobalBlockIndex(ifn.fn.Index, bi)]
				if weight == 0 {
					continue
				}
			}
			code := ifn.code[ifn.blockOff[bi]:ifn.blockOff[bi+1]]
			// Maximal fusable segments, then every window of 2..maxLen.
			for lo := 0; lo < len(code); {
				if !runOp(code[lo].op) {
					lo++
					continue
				}
				hi := lo
				for hi < len(code) && runOp(code[hi].op) {
					hi++
				}
				for n := 2; n <= maxLen; n++ {
					for s := lo; s+n <= hi; s++ {
						key := ""
						for k := s; k < s+n; k++ {
							if k > s {
								key += " "
							}
							key += xopName(code[k].op)
						}
						m := acc[key]
						if m == nil {
							m = &MinedSeq{Ops: key, Len: n}
							acc[key] = m
						}
						m.Static++
						m.Dynamic += weight
					}
				}
				lo = hi
			}
		}
	}
	out := make([]MinedSeq, 0, len(acc))
	for _, m := range acc {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dynamic != out[j].Dynamic {
			return out[i].Dynamic > out[j].Dynamic
		}
		return out[i].Ops < out[j].Ops
	})
	return out
}

// FuseStats summarizes one module's compilation.
type FuseStats struct {
	ImageWords  int // iwords in the source image
	Words       int // iwords in the compiled stream (excluding run tables)
	Runs        int // xRun superinstructions emitted
	RunOps      int // constituent ops folded into runs
	CmpBr       int // fused compare+branch words
	CmpEqDetect int // fused duplication checks inherited from the image
	Folds       int // known-bits constant specializations (spec stream)
}

// Stats returns the compilation summary.
func (c *Compiled) Stats() FuseStats { return c.stats }

// FusedDynamicFraction returns the fraction of prof's dynamic instruction
// stream that executed inside fused words (runs, cmp+br, cmp-eq+detect):
// the coverage metric the mining tests gate.
func (c *Compiled) FusedDynamicFraction(prof *Profile) float64 {
	var total, fused int64
	for _, n := range prof.InstrCount {
		total += n
	}
	if total == 0 {
		return 0
	}
	for _, cf := range c.funcs {
		for i := range cf.code {
			w := &cf.code[i]
			switch w.op {
			case xRun:
				for _, cw := range cf.runs[w.a : w.a+w.b] {
					fused += prof.InstrCount[cw.id]
					if pairOp(cw.op) {
						fused += prof.InstrCount[cw.id2]
					}
				}
			case xRunBr:
				for _, cw := range cf.runs[w.a : w.a+w.b] {
					fused += prof.InstrCount[cw.id]
					if pairOp(cw.op) {
						fused += prof.InstrCount[cw.id2]
					}
				}
				fused += prof.InstrCount[w.id2]
			case xRunCmpBr:
				// b run constituents plus the cmp word at runs[a+b],
				// plus the branch half in the header.
				for _, cw := range cf.runs[w.a : w.a+w.b+1] {
					fused += prof.InstrCount[cw.id]
					if pairOp(cw.op) {
						fused += prof.InstrCount[cw.id2]
					}
				}
				fused += prof.InstrCount[w.id2]
			case xCmpBr, xCmpEqDetect:
				fused += prof.InstrCount[w.id] + prof.InstrCount[w.id2]
			}
		}
	}
	return float64(fused) / float64(total)
}
