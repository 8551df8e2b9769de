package interp

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// This file implements the compile step of the compiled engine, the
// default execution engine: it rewrites a decoded Image (image.go) into
// superinstruction streams executed by the direct-threaded dispatch loop
// in dispatch.go.
//
// Three rewrites are performed, all pinned bit-identical to the legacy
// stepper by the legacy-vs-compiled differential suite (diff_test.go):
//
//   - run fusion: maximal straight-line sequences of value ops (runOp)
//     collapse into one xRun word whose constituents live in a side
//     table. One dispatch executes the whole run; a pure run (no
//     constituent can trap) additionally accounts its dynamic
//     instructions and cycles in bulk after a single hang-budget
//     pre-check, which is where the campaign-loop speedup comes from.
//   - cmp+br fusion: a comparison immediately feeding the block's
//     conditional branch fuses into one xCmpBr word (generalizing the
//     decoder's one-off xCmpEqDetect fusion, which is inherited verbatim).
//   - known-bits specialization: ops whose results internal/analysis
//     proves constant on fault-free runs become xConst pool moves — but
//     only in a second code stream (cfunc.spec) selected when no fault is
//     armed. Exact streams keep the original operand reads, because a
//     flip upstream of a folded op must still propagate through it.
//
// Fusion changes dispatch granularity (n instructions per quantum step),
// which is observable through the round-robin thread schedule, so — like
// xCmpEqDetect — it is disabled for modules that spawn threads: they run
// the decoded image stream unfused, with only the specialization rewrite.
// Cycle accounting, profile counters, hang-budget boundaries, trap points,
// and fault-site numbering are preserved exactly in all streams.

// cfunc is one compiled function: two code streams of identical length
// and offsets (so edge programs retarget once), plus the run side tables
// and the (possibly extended) constant pool shared by both.
type cfunc struct {
	ifn      *ifunc
	code     []iword // exact stream: runs with a fault armed
	spec     []iword // specialized stream: fault-free runs (aliases code when no folds)
	runs     []iword // xRun constituents of code
	runsSpec []iword // xRun constituents of spec (aliases runs when no folds)
	consts   []uint64
	nSlots   int
	entry    []int32 // per-block edge-entry offsets into code/spec
}

// Compiled is a fully compiled module: the source image plus compiled
// functions and retargeted edge programs.
type Compiled struct {
	img       *Image
	funcs     []*cfunc
	edgeProgs []edgeProg
	stats     FuseStats
}

// Compile rewrites img into superinstruction form. A legacy-only image
// compiles to an empty artifact; the Runner then falls back to the
// reference stepper.
func Compile(img *Image) *Compiled {
	c := &Compiled{img: img}
	if img.legacyOnly {
		return c
	}
	folds := foldableValues(img)
	for _, ifn := range img.funcs {
		c.funcs = append(c.funcs, c.compileFunc(ifn, folds))
	}

	// Retarget the edge programs into the compiled streams. Phi moves,
	// trap/lone classification, and destination blocks are semantic facts
	// of the IR and carry over unchanged; only the resume offset moves.
	c.edgeProgs = append([]edgeProg(nil), img.edgeProgs...)
	for fi, ifn := range img.funcs {
		f := ifn.fn
		for bi, blk := range f.Blocks {
			t := blk.Terminator()
			if t == nil || (t.Op != ir.OpBr && t.Op != ir.OpCondBr) {
				continue
			}
			from := img.mod.GlobalBlockIndex(f.Index, bi)
			for _, s := range t.Succs {
				if s < 0 || s >= len(f.Blocks) {
					continue
				}
				eid := img.edges.Lookup(from, img.mod.GlobalBlockIndex(f.Index, s))
				c.edgeProgs[eid].target = c.funcs[fi].entry[s]
			}
		}
	}
	return c
}

// foldableValues computes, per static instruction ID, the constant the
// known-bits lattice proves the instruction computes on every fault-free
// execution. Only side-effect-free, trap-free ops whose destination has a
// single static definition participate (see analysis.BuildConstFacts).
func foldableValues(img *Image) map[int32]uint64 {
	folds := make(map[int32]uint64)
	for _, f := range img.mod.Funcs {
		facts := analysis.BuildConstFacts(f, analysis.BuildCFG(f))
		if len(facts.Known) == 0 {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() {
					continue
				}
				switch in.Op {
				case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr,
					ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSelect:
					if v, ok := facts.Known[in.Dst]; ok {
						folds[int32(in.ID)] = v
					}
				}
			}
		}
	}
	return folds
}

// compileFunc rewrites one function.
func (c *Compiled) compileFunc(ifn *ifunc, folds map[int32]uint64) *cfunc {
	cf := &cfunc{
		ifn:    ifn,
		consts: append([]uint64(nil), ifn.consts...),
	}
	nB := len(ifn.blockOff) - 1
	c.stats.CmpEqDetect += countOps(ifn.code, xCmpEqDetect)
	c.stats.ImageWords += len(ifn.code)

	if c.img.hasSpawn {
		// Fusion would change how many instructions one quantum dispatch
		// step executes, which the round-robin thread schedule observes;
		// share the image stream verbatim (dispatch handles every image
		// opcode) and keep only the specialization rewrite below.
		cf.code = ifn.code
		cf.entry = ifn.edgeEntry
	} else {
		cf.entry = make([]int32, nB)
		var buf []iword
		// pairSeg rewrites adjacent dependent constituents into paired
		// words (globaladdr→gep, gep→load), halving the dispatch loop's
		// iterations over the hottest mined 2-grams. Both halves keep
		// their own accounting and flip sites (second half in
		// ex0/id2/cyc2/c).
		pairSeg := func(seg []iword) []iword {
			out := make([]iword, 0, len(seg))
			for i := 0; i < len(seg); i++ {
				w := seg[i]
				if i+1 < len(seg) {
					nx := seg[i+1]
					if w.op == xGlobalAddr && nx.op == xGEP &&
						(nx.a == w.dst || nx.b == w.dst) {
						idx := nx.b
						if nx.a != w.dst {
							idx = nx.a // gep addition commutes
						}
						out = append(out, iword{
							op: xGAGep, a: w.a, dst: w.dst,
							id: w.id, cyc: w.cyc, tbits: w.tbits,
							b: idx, ex0: nx.dst, id2: nx.id, cyc2: nx.cyc,
							c: int32(nx.tbits), ex1: -1,
						})
						i++
						continue
					}
					if w.op == xGEP && nx.op == xLoad && nx.a == w.dst {
						out = append(out, iword{
							op: xGepLoad, a: w.a, b: w.b, dst: w.dst,
							id: w.id, cyc: w.cyc, tbits: w.tbits,
							ex0: nx.dst, id2: nx.id, cyc2: nx.cyc,
							c: int32(nx.tbits), ex1: -1,
						})
						i++
						continue
					}
				}
				out = append(out, w)
			}
			return out
		}
		// runHdr moves seg into the run side table (pairing adjacent
		// dependent constituents) and returns a header word for one of
		// the run-family opcodes: a = runs offset, b = constituent word
		// count, bfn = original op count, id/dst = first/last op id
		// (ascending, for the dispatcher's fault-range check), cyc = the
		// run's total cycle sum. c marks fast-eligible runs — every
		// constituent pure or a load/store, whose trap-time accounting is
		// a recomputable prefix — which the dispatcher may execute with
		// bulk accounting. Runs containing div/rem/ftoi, or with
		// non-monotonic ids, take the general per-op path.
		runHdr := func(op xop, seg []iword) iword {
			fast := true
			cyc := int16(0)
			for i := range seg {
				switch seg[i].op {
				case xDiv, xRem, xFToI:
					fast = false
				}
				if i > 0 && seg[i].id < seg[i-1].id {
					// The dispatcher's fault-range check assumes ascending
					// constituent ids; demote a non-monotonic run.
					fast = false
				}
				cyc += seg[i].cyc
			}
			paired := pairSeg(seg)
			hdr := iword{
				op: op, bfn: uint8(len(seg)), dst: seg[len(seg)-1].id,
				a: int32(len(cf.runs)), b: int32(len(paired)),
				id: seg[0].id, cyc: cyc, ex0: -1, ex1: -1,
			}
			if fast {
				hdr.c = 1
			}
			cf.runs = append(cf.runs, paired...)
			c.stats.Runs++
			c.stats.RunOps += len(seg)
			return hdr
		}
		flush := func() {
			for len(buf) >= 2 {
				seg := buf
				if len(seg) > maxRunLen {
					seg = seg[:maxRunLen]
				}
				cf.code = append(cf.code, runHdr(xRun, seg))
				buf = buf[len(seg):]
			}
			if len(buf) == 1 {
				cf.code = append(cf.code, buf[0])
			}
			buf = buf[:0]
		}
		// flushTo reduces buf to at most maxRunLen words by emitting
		// leading full-length xRun chunks, leaving the tail to fuse into
		// the block terminator.
		flushTo := func() {
			for len(buf) > maxRunLen {
				cf.code = append(cf.code, runHdr(xRun, buf[:maxRunLen]))
				buf = buf[maxRunLen:]
			}
		}
		for bi := 0; bi < nB; bi++ {
			lo, hi := ifn.blockOff[bi], ifn.blockOff[bi+1]
			// An entry-block phi group runs at function entry, before the
			// block's edge-entry offset; copy it verbatim so frame entry
			// at pc 0 still executes it step by step.
			for off := lo; off < ifn.edgeEntry[bi]; off++ {
				cf.code = append(cf.code, ifn.code[off])
			}
			cf.entry[bi] = int32(len(cf.code))
			for off := ifn.edgeEntry[bi]; off < hi; off++ {
				w := ifn.code[off]
				if runOp(w.op) {
					buf = append(buf, w)
					continue
				}
				if w.op == xCondBr && len(buf) > 0 {
					last := buf[len(buf)-1]
					if cmpOp(last.op) && last.dst == w.a {
						buf = buf[:len(buf)-1]
						if len(buf) == 0 {
							cf.code = append(cf.code, iword{
								op: xCmpBr, bfn: uint8(last.op), tbits: last.tbits,
								cyc: last.cyc, cyc2: w.cyc,
								dst: last.dst, a: last.a, b: last.b,
								id: last.id, id2: w.id,
								ex0: w.ex0, ex1: w.ex1,
							})
							c.stats.CmpBr++
							continue
						}
						// Whole block tail in one word: the run, then the
						// comparison (stored as an extra constituent at
						// runs[a+b]), then the branch in the header.
						flushTo()
						hdr := runHdr(xRunCmpBr, buf)
						cf.runs = append(cf.runs, last)
						hdr.cyc2, hdr.id2 = w.cyc, w.id
						hdr.ex0, hdr.ex1 = w.ex0, w.ex1
						cf.code = append(cf.code, hdr)
						c.stats.CmpBr++
						buf = buf[:0]
						continue
					}
				}
				if w.op == xBr && len(buf) > 0 {
					// Block tail [value-ops..., br] in one word.
					flushTo()
					hdr := runHdr(xRunBr, buf)
					hdr.cyc2, hdr.id2 = w.cyc, w.id
					hdr.ex0 = w.ex0
					cf.code = append(cf.code, hdr)
					buf = buf[:0]
					continue
				}
				flush()
				cf.code = append(cf.code, w)
			}
			flush()
		}
	}
	c.stats.Words += len(cf.code)

	// Specialized stream: clone and rewrite in place (never insert or
	// delete, so both streams share offsets and edge programs).
	cf.spec, cf.runsSpec = cf.code, cf.runs
	if len(folds) > 0 {
		constSlot := make(map[uint64]int32)
		for i, v := range cf.consts {
			constSlot[v] = int32(ifn.nRegs + i)
		}
		intern := func(v uint64) int32 {
			s, ok := constSlot[v]
			if !ok {
				s = int32(ifn.nRegs + len(cf.consts))
				constSlot[v] = s
				cf.consts = append(cf.consts, v)
			}
			return s
		}
		rewrite := func(ws []iword) []iword {
			var out []iword
			for i := range ws {
				w := &ws[i]
				v, ok := folds[w.id]
				if !ok || !foldableXop(w.op) {
					continue
				}
				if out == nil {
					out = append([]iword(nil), ws...)
				}
				nw := &out[i]
				nw.op, nw.a, nw.b, nw.c = xConst, intern(v), 0, 0
				c.stats.Folds++
			}
			if out == nil {
				return ws
			}
			return out
		}
		cf.spec = rewrite(cf.code)
		cf.runsSpec = rewrite(cf.runs)
	}
	cf.nSlots = ifn.nRegs + len(cf.consts)
	return cf
}

// foldableXop mirrors foldableValues' opcode set at the iword level, so a
// fused-detect comparison (whose id is an icmp) is never rewritten.
func foldableXop(op xop) bool {
	switch op {
	case xAdd, xSub, xMul, xAnd, xOr, xXor, xShl, xShr, xSelect:
		return true
	}
	return false
}

func countOps(ws []iword, op xop) int {
	n := 0
	for i := range ws {
		if ws[i].op == op {
			n++
		}
	}
	return n
}

type compiledKey struct{}

// compiledOf returns the compiled artifact of m's current finalized
// snapshot, shared by every Runner of the module (campaign workers,
// golden runs, harness phases). Decoding and compiling are
// deterministic, so the artifact lives on the module and is recompiled
// only after Finalize.
func compiledOf(m *ir.Module) *Compiled {
	return ir.Derived(m, compiledKey{}, func(m *ir.Module) *Compiled {
		return Compile(Lower(m))
	})
}
