package interp

import "math"

// This file is the execution half of the compiled engine: a
// direct-threaded dispatch loop over per-opcode handler tables of func
// values, indexed by the iword's opcode, so fused superinstructions and
// plain decoded ops share one dispatch mechanism. One handler table
// serves all run modes: profile updates are guarded by a nil check and
// fault checks compare against faultID, which run() pins to -1 when no
// fault is armed, so an unarmed run never matches any static instruction
// ID.
//
// The observable step order of the reference stepper is preserved per
// instruction: account (nDyn, cycles, profile) → hang check → execute →
// result write → fault flip → pc advance. Fast-eligible runs (runBody)
// hoist the accounting into one bulk update and skip per-op flip checks,
// which is only taken when no profile is attached, the hang budget
// provably cannot strike inside the run, and the armed fault site lies
// outside the run's static-id range; otherwise the exact per-constituent
// path runs. A trap mid-fast-path (load/store bounds) recomputes the
// exact accounting prefix before halting (flushRunPrefix), so trap-state
// observables match the reference stepper bit for bit.

// chandler executes one compiled iword and reports whether this thread's
// quantum may continue: false after any halt (trap, hang, detection),
// thread completion, or a join wait. Returning the continue bit keeps the
// dispatch loop free of per-step flag loads. Handlers advance fr.pc (or
// transfer control) themselves.
type chandler func(r *Runner, t *thread, fr *frame, in *iword) bool

// cHandlers is sized to the opcode byte's full range (not xNumOps) so the
// dispatch index needs no bounds check; unused slots stay nil and would
// fault loudly on a corrupt opcode.
var cHandlers [256]chandler

// quantumCompiled executes up to q dispatch steps on t. Fused words count
// as one dispatch step (like the decoder's fused xCmpEqDetect); fusion is
// disabled for spawning modules, where step granularity is observable.
func (r *Runner) quantumCompiled(t *thread, q int) {
	if t.done || t.joining || r.halted {
		return
	}
	for i := 0; i < q; i++ {
		fr := &t.frames[len(t.frames)-1]
		in := &fr.code[fr.pc]
		if !cHandlers[in.op](r, t, fr, in) {
			return
		}
	}
}

// pushCFrame is the compiled engine's frame push. The code stream is
// chosen by run mode: the exact stream when a fault is armed (known-bits
// folds are unsound under injection — a flip upstream of a folded op must
// propagate through it), the specialized stream otherwise. The mode is
// fixed for a whole run, so every frame of a run uses one stream.
func (r *Runner) pushCFrame(t *thread, cfn *cfunc, args []uint64, retDst int, callID int32, callTBits uint8) {
	fr := t.pushSlot()
	regs := frameRegs(fr, cfn.nSlots)
	copy(regs, args)
	copy(regs[cfn.ifn.nRegs:], cfn.consts)
	code, cruns := cfn.code, cfn.runs
	if r.fault == nil {
		code, cruns = cfn.spec, cfn.runsSpec
	}
	*fr = frame{
		code:      code,
		cruns:     cruns,
		regs:      regs,
		spSave:    t.sp,
		retDst:    retDst,
		callID:    callID,
		callTBits: callTBits,
		phiSrc:    cfn.ifn.entryPhiSrc,
		midOff:    cfn.ifn.entryMidOff,
	}
	t.callDepth++
}

// acct performs one instruction's dynamic accounting and hang check,
// reporting false when the machine halted.
func (r *Runner) acct(in *iword) bool {
	r.nDyn++
	cyc := int64(in.cyc)
	r.cycles += cyc
	if p := r.prof; p != nil {
		p.InstrCount[in.id]++
		p.InstrCycles[in.id] += cyc
	}
	if r.nDyn > r.cfg.MaxDynInstrs {
		r.haltHang()
		return false
	}
	return true
}

// flushRunPrefix flushes exact accounting for a trap at constituent k of
// a fast-path run: words 0..k are accounted, the trapping op included.
// Paired words count both halves — a pair can only trap at its second
// half (the load), which accounts before executing, so both halves are
// always in the prefix. Only reached on the cold trap path, so the
// prefix sum is recomputed rather than carried through the hot loop.
func (r *Runner) flushRunPrefix(ws []iword, k int) {
	cyc, n := r.cycles, int64(0)
	for j := 0; j <= k; j++ {
		cyc += int64(ws[j].cyc)
		n++
		if pairOp(ws[j].op) {
			cyc += int64(ws[j].cyc2)
			n++
		}
	}
	r.nDyn += n
	r.cycles = cyc
}

// wr writes a value result, applies a matching fault flip, and advances.
func (r *Runner) wr(fr *frame, in *iword, res uint64) {
	fr.regs[in.dst] = res
	if in.id == r.faultID {
		r.flipSlot(fr.regs, in.dst, in.tbits)
	}
	fr.pc++
}

// flipSlot applies the armed fault to regs[dst] if this dynamic execution
// of the target instruction is the injection point, and advances the
// dynamic-occurrence counter either way (mirroring Runner.flip). Callers
// have already matched the static instruction ID against faultID. Once
// the flip is applied the fault is disarmed (faultID -1), so the rest of
// the run takes the unarmed fast paths; faultSeen stays past DynIndex.
func (r *Runner) flipSlot(regs []uint64, dst int32, tbits uint8) {
	if r.faultSeen == r.fault.DynIndex {
		r.faultID = -1
		mask := r.fault.Mask
		if tbits == 1 {
			mask &= 1
		}
		switch {
		case r.fault.Op == FaultStuckAt0:
			regs[dst] &^= mask
		case r.fault.Op == FaultStuckAt1:
			regs[dst] |= mask
		case r.fault.Mask != 0:
			regs[dst] ^= mask
		default:
			bit := r.fault.Bit % uint(tbits)
			regs[dst] ^= 1 << bit
		}
	}
	r.faultSeen++
}

// takeEdgeC transfers control along edge e in the order of the reference
// stepper: block and edge counters (before any phi work, including a
// missing-predecessor trap), then the edge's phi moves, with profile and
// fault both guarded. The target's mid-block phis read their incoming
// slots through the frame's midOff, which the edge sets. Returns the
// continue bit for the dispatch loop.
func (r *Runner) takeEdgeC(fr *frame, e int32) bool {
	if e < 0 {
		r.haltTrap("branch to invalid block")
		return false
	}
	ep := &r.comp.edgeProgs[e]
	p := r.prof
	if p != nil {
		p.BlockCount[ep.dstBlock]++
		p.EdgeHits[e]++
	}
	if ep.trap {
		r.haltTrap("phi with no matching predecessor")
		return false
	}
	fr.midOff = ep.midOff
	if ep.lone {
		fr.phiSrc = ep.moves[0].src
		fr.pc = int(ep.target)
		return true
	}
	moves := ep.moves
	if len(moves) == 0 {
		fr.pc = int(ep.target)
		return true
	}
	regs := fr.regs
	fid := r.faultID
	if ep.direct && p == nil && r.nDyn+int64(len(moves)) <= r.cfg.MaxDynInstrs {
		// Non-aliasing move group off the profiled path with headroom:
		// sequential writes match parallel-assignment semantics, so the
		// snapshot buffer is skipped and accounting is one bulk update.
		cyc := r.cycles
		for i := range moves {
			mv := &moves[i]
			cyc += int64(mv.cyc)
			regs[mv.dst] = regs[mv.src]
			if mv.id == fid {
				r.flipSlot(regs, mv.dst, mv.tbits)
			}
		}
		r.nDyn += int64(len(moves))
		r.cycles = cyc
		fr.pc = int(ep.target)
		return true
	}
	vals := r.phiVals[:len(moves)]
	for i := range moves {
		vals[i] = regs[moves[i].src]
	}
	if p == nil && r.nDyn+int64(len(moves)) <= r.cfg.MaxDynInstrs {
		// Unprofiled with hang headroom: phi moves can't trap, so the
		// accounting collapses to one bulk update (same argument as hRun).
		cyc := r.cycles
		for i := range moves {
			mv := &moves[i]
			cyc += int64(mv.cyc)
			regs[mv.dst] = vals[i]
			if mv.id == fid {
				r.flipSlot(regs, mv.dst, mv.tbits)
			}
		}
		r.nDyn += int64(len(moves))
		r.cycles = cyc
		fr.pc = int(ep.target)
		return true
	}
	maxDyn := r.cfg.MaxDynInstrs
	for i := range moves {
		mv := &moves[i]
		r.nDyn++
		cyc := int64(mv.cyc)
		r.cycles += cyc
		if p != nil {
			p.InstrCount[mv.id]++
			p.InstrCycles[mv.id] += cyc
		}
		if r.nDyn > maxDyn {
			r.haltHang()
			return false
		}
		regs[mv.dst] = vals[i]
		if mv.id == fid {
			r.flipSlot(regs, mv.dst, mv.tbits)
		}
	}
	fr.pc = int(ep.target)
	return true
}

// execPure executes one pure run constituent (no trap possible) and
// returns its result. Used on the bulk-accounted fast path.
func (r *Runner) execPure(regs []uint64, w *iword) uint64 {
	switch w.op {
	case xAdd:
		return regs[w.a] + regs[w.b]
	case xSub:
		return regs[w.a] - regs[w.b]
	case xMul:
		return regs[w.a] * regs[w.b]
	case xAnd:
		return regs[w.a] & regs[w.b]
	case xOr:
		return regs[w.a] | regs[w.b]
	case xXor:
		return regs[w.a] ^ regs[w.b]
	case xShl:
		return uint64(int64(regs[w.a]) << (regs[w.b] & 63))
	case xShr:
		return uint64(int64(regs[w.a]) >> (regs[w.b] & 63))
	case xFAdd:
		return fromF(asF(regs[w.a]) + asF(regs[w.b]))
	case xFSub:
		return fromF(asF(regs[w.a]) - asF(regs[w.b]))
	case xFMul:
		return fromF(asF(regs[w.a]) * asF(regs[w.b]))
	case xFDiv:
		return fromF(asF(regs[w.a]) / asF(regs[w.b]))
	case xIToF:
		return fromF(float64(int64(regs[w.a])))
	case xGEP:
		return uint64(int64(regs[w.a]) + int64(regs[w.b]))
	case xGlobalAddr:
		return uint64(r.globalBase[w.a])
	case xArrayLen:
		return uint64(r.globalLen[w.a])
	case xSelect:
		if regs[w.a]&1 != 0 {
			return regs[w.b]
		}
		return regs[w.c]
	case xSqrt:
		return fromF(math.Sqrt(asF(regs[w.a])))
	case xFabs:
		return fromF(math.Abs(asF(regs[w.a])))
	case xExp:
		return fromF(math.Exp(asF(regs[w.a])))
	case xLog:
		return fromF(math.Log(asF(regs[w.a])))
	case xSin:
		return fromF(math.Sin(asF(regs[w.a])))
	case xCos:
		return fromF(math.Cos(asF(regs[w.a])))
	case xPow:
		return fromF(math.Pow(asF(regs[w.a]), asF(regs[w.b])))
	case xFloor:
		return fromF(math.Floor(asF(regs[w.a])))
	case xIAbs:
		v := int64(regs[w.a])
		if v < 0 {
			v = -v
		}
		return uint64(v)
	case xConst:
		return regs[w.a]
	default: // evalCmp covers all twelve comparison opcodes
		return evalCmp(w.op, regs, w.a, w.b)
	}
}

// execSVO executes one run constituent on the exact path: result write
// and fault flip included, false on halt. Trap-capable ops live here.
func (r *Runner) execSVO(fr *frame, w *iword) bool {
	regs := fr.regs
	var res uint64
	switch w.op {
	case xDiv:
		a, b := int64(regs[w.a]), int64(regs[w.b])
		if b == 0 {
			r.haltTrap("integer divide by zero")
			return false
		}
		if a == math.MinInt64 && b == -1 {
			r.haltTrap("integer divide overflow")
			return false
		}
		res = uint64(a / b)
	case xRem:
		a, b := int64(regs[w.a]), int64(regs[w.b])
		if b == 0 {
			r.haltTrap("integer remainder by zero")
			return false
		}
		if a == math.MinInt64 && b == -1 {
			r.haltTrap("integer remainder overflow")
			return false
		}
		res = uint64(a % b)
	case xFToI:
		f := asF(regs[w.a])
		if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
			r.haltTrap("float-to-int out of range")
			return false
		}
		res = uint64(int64(f))
	case xLoad:
		p := regs[w.a]
		if p < reservedLow || p >= uint64(len(r.mem)) {
			r.haltTrap(loadOOB(p))
			return false
		}
		res = r.mem[p]
	case xStore:
		p := regs[w.b]
		if p < reservedLow || p >= uint64(len(r.mem)) {
			r.haltTrap(storeOOB(p))
			return false
		}
		r.mem[p] = regs[w.a]
		return true // no result, no flip site
	default:
		res = r.execPure(regs, w)
	}
	regs[w.dst] = res
	if w.id == r.faultID {
		r.flipSlot(regs, w.dst, w.tbits)
	}
	return true
}

// evalCmp evaluates one folded-predicate comparison opcode.
func evalCmp(op xop, regs []uint64, a, b int32) uint64 {
	switch op {
	case xICmpEQ:
		return boolWord(int64(regs[a]) == int64(regs[b]))
	case xICmpNE:
		return boolWord(int64(regs[a]) != int64(regs[b]))
	case xICmpLT:
		return boolWord(int64(regs[a]) < int64(regs[b]))
	case xICmpLE:
		return boolWord(int64(regs[a]) <= int64(regs[b]))
	case xICmpGT:
		return boolWord(int64(regs[a]) > int64(regs[b]))
	case xICmpGE:
		return boolWord(int64(regs[a]) >= int64(regs[b]))
	case xFCmpEQ:
		return boolWord(asF(regs[a]) == asF(regs[b]))
	case xFCmpNE:
		return boolWord(asF(regs[a]) != asF(regs[b]))
	case xFCmpLT:
		return boolWord(asF(regs[a]) < asF(regs[b]))
	case xFCmpLE:
		return boolWord(asF(regs[a]) <= asF(regs[b]))
	case xFCmpGT:
		return boolWord(asF(regs[a]) > asF(regs[b]))
	default: // xFCmpGE
		return boolWord(asF(regs[a]) >= asF(regs[b]))
	}
}

// runBody executes the run constituents of a run-family word (xRun,
// xRunBr, xRunCmpBr) without advancing pc — the caller appends its own
// control transfer or advance. This is the hot loop of the compiled
// tier: all paths cache accounting state in locals and inline the most
// frequent constituent ops, falling back to the shared evaluators for
// the rest. Locals are flushed to the Runner before any call that can
// observe them (halt, trap, fallback execution).
func runBody(r *Runner, fr *frame, in *iword) bool {
	n := int32(in.b)
	ws := fr.cruns[in.a : in.a+n]
	regs := fr.regs
	fid := r.faultID
	p := r.prof
	maxDyn := r.cfg.MaxDynInstrs
	mem := r.mem
	if in.c != 0 && p == nil && r.nDyn+int64(in.bfn) <= maxDyn &&
		(fid < in.id || fid > in.dst) {
		// Fast path: fast-eligible run (no div/rem/ftoi), no profile, hang
		// headroom for the whole run (bfn = original op count; paired
		// words carry two), and the armed fault site outside the run's id
		// range [id, dst] (ids are ascending; the compiler demotes
		// non-monotonic runs) — so per-op accounting and flip checks
		// vanish entirely. Loads can still trap; the exact dynamic count
		// and cycle prefix are then recomputed on that cold path by
		// flushRunPrefix.
		for k := range ws {
			w := &ws[k]
			var res uint64
			switch w.op {
			case xAdd:
				res = regs[w.a] + regs[w.b]
			case xFMul:
				res = fromF(asF(regs[w.a]) * asF(regs[w.b]))
			case xFAdd:
				res = fromF(asF(regs[w.a]) + asF(regs[w.b]))
			case xGEP:
				res = uint64(int64(regs[w.a]) + int64(regs[w.b]))
			case xMul:
				res = regs[w.a] * regs[w.b]
			case xSub:
				res = regs[w.a] - regs[w.b]
			case xFSub:
				res = fromF(asF(regs[w.a]) - asF(regs[w.b]))
			case xLoad:
				ptr := regs[w.a]
				if ptr < reservedLow || ptr >= uint64(len(mem)) {
					r.flushRunPrefix(ws, k)
					r.haltTrap(loadOOB(ptr))
					return false
				}
				res = mem[ptr]
			case xStore:
				ptr := regs[w.b]
				if ptr < reservedLow || ptr >= uint64(len(mem)) {
					r.flushRunPrefix(ws, k)
					r.haltTrap(storeOOB(ptr))
					return false
				}
				mem[ptr] = regs[w.a]
				continue // stores write no register
			case xGlobalAddr:
				res = uint64(r.globalBase[w.a])
			case xGAGep:
				// Paired globaladdr→gep: two ops, one iteration.
				t0 := uint64(r.globalBase[w.a])
				regs[w.dst] = t0
				regs[w.ex0] = uint64(int64(t0) + int64(regs[w.b]))
				continue
			case xGepLoad:
				// Paired gep→load: the address write lands before the
				// bounds check so a trap leaves the same state as the
				// unpaired sequence.
				t0 := uint64(int64(regs[w.a]) + int64(regs[w.b]))
				regs[w.dst] = t0
				if t0 < reservedLow || t0 >= uint64(len(mem)) {
					r.flushRunPrefix(ws, k)
					r.haltTrap(loadOOB(t0))
					return false
				}
				regs[w.ex0] = mem[t0]
				continue
			case xConst:
				res = regs[w.a]
			default:
				res = r.execPure(regs, w)
			}
			regs[w.dst] = res
		}
		r.nDyn += int64(in.bfn)
		r.cycles += int64(in.cyc)
		return true
	}
	nDyn, cyc := r.nDyn, r.cycles
	for k := range ws {
		w := &ws[k]
		nDyn++
		c := int64(w.cyc)
		cyc += c
		if p != nil {
			p.InstrCount[w.id]++
			p.InstrCycles[w.id] += c
		}
		if nDyn > maxDyn {
			r.nDyn, r.cycles = nDyn, cyc
			r.haltHang()
			return false
		}
		var res uint64
		switch w.op {
		case xAdd:
			res = regs[w.a] + regs[w.b]
		case xFMul:
			res = fromF(asF(regs[w.a]) * asF(regs[w.b]))
		case xFAdd:
			res = fromF(asF(regs[w.a]) + asF(regs[w.b]))
		case xGEP:
			res = uint64(int64(regs[w.a]) + int64(regs[w.b]))
		case xMul:
			res = regs[w.a] * regs[w.b]
		case xSub:
			res = regs[w.a] - regs[w.b]
		case xFSub:
			res = fromF(asF(regs[w.a]) - asF(regs[w.b]))
		case xLoad:
			ptr := regs[w.a]
			if ptr < reservedLow || ptr >= uint64(len(mem)) {
				r.nDyn, r.cycles = nDyn, cyc
				r.haltTrap(loadOOB(ptr))
				return false
			}
			res = mem[ptr]
		case xStore:
			ptr := regs[w.b]
			if ptr < reservedLow || ptr >= uint64(len(mem)) {
				r.nDyn, r.cycles = nDyn, cyc
				r.haltTrap(storeOOB(ptr))
				return false
			}
			mem[ptr] = regs[w.a]
			continue // stores write no register and are not flip sites
		case xGlobalAddr:
			res = uint64(r.globalBase[w.a])
		case xGAGep:
			// Paired globaladdr→gep, exact per-half semantics: the gep
			// half re-reads the (possibly flipped) globaladdr result.
			regs[w.dst] = uint64(r.globalBase[w.a])
			if w.id == fid {
				r.flipSlot(regs, w.dst, w.tbits)
			}
			nDyn++
			c2 := int64(w.cyc2)
			cyc += c2
			if p != nil {
				p.InstrCount[w.id2]++
				p.InstrCycles[w.id2] += c2
			}
			if nDyn > maxDyn {
				r.nDyn, r.cycles = nDyn, cyc
				r.haltHang()
				return false
			}
			regs[w.ex0] = uint64(int64(regs[w.dst]) + int64(regs[w.b]))
			if w.id2 == fid {
				r.flipSlot(regs, w.ex0, uint8(w.c))
			}
			continue
		case xGepLoad:
			// Paired gep→load, exact per-half semantics: the load half
			// accounts before its bounds check, and dereferences the
			// (possibly flipped) gep result.
			regs[w.dst] = uint64(int64(regs[w.a]) + int64(regs[w.b]))
			if w.id == fid {
				r.flipSlot(regs, w.dst, w.tbits)
			}
			nDyn++
			c2 := int64(w.cyc2)
			cyc += c2
			if p != nil {
				p.InstrCount[w.id2]++
				p.InstrCycles[w.id2] += c2
			}
			if nDyn > maxDyn {
				r.nDyn, r.cycles = nDyn, cyc
				r.haltHang()
				return false
			}
			ptr := regs[w.dst]
			if ptr < reservedLow || ptr >= uint64(len(mem)) {
				r.nDyn, r.cycles = nDyn, cyc
				r.haltTrap(loadOOB(ptr))
				return false
			}
			regs[w.ex0] = mem[ptr]
			if w.id2 == fid {
				r.flipSlot(regs, w.ex0, uint8(w.c))
			}
			continue
		case xDiv, xRem, xFToI:
			// The only trap-capable fallbacks: flush locals first.
			r.nDyn, r.cycles = nDyn, cyc
			if !r.execSVO(fr, w) {
				return false
			}
			continue
		default:
			res = r.execPure(regs, w)
		}
		regs[w.dst] = res
		if w.id == fid {
			r.flipSlot(regs, w.dst, w.tbits)
		}
	}
	r.nDyn, r.cycles = nDyn, cyc
	return true
}

// hRun executes one plain superinstruction run and falls through to the
// next word.
func hRun(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !runBody(r, fr, in) {
		return false
	}
	fr.pc++
	return true
}

// hRunBr executes a fused block tail [value-ops..., br]: the run, then
// the unconditional branch (accounting id2/cyc2, edge ex0) — one
// dispatch per straight-through loop-body block.
func hRunBr(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !runBody(r, fr, in) {
		return false
	}
	r.nDyn++
	c2 := int64(in.cyc2)
	r.cycles += c2
	if p := r.prof; p != nil {
		p.InstrCount[in.id2]++
		p.InstrCycles[in.id2] += c2
	}
	if r.nDyn > r.cfg.MaxDynInstrs {
		r.haltHang()
		return false
	}
	return r.takeEdgeC(fr, in.ex0)
}

// hRunCmpBr executes a fused block tail [value-ops..., cmp, condbr]:
// the run, the comparison (stored as an extra constituent at
// cruns[a+b], carrying its own accounting and flip site), then the
// conditional branch (id2/cyc2, edges ex0/ex1). The branch re-reads the
// written comparison result, so a flip of the cmp still redirects
// control.
func hRunCmpBr(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !runBody(r, fr, in) {
		return false
	}
	cw := &fr.cruns[in.a+in.b]
	regs := fr.regs
	maxDyn := r.cfg.MaxDynInstrs
	p := r.prof
	if p == nil && r.nDyn+2 <= maxDyn {
		// Unprofiled with headroom: neither half can trap or hang, so both
		// halves account in one bulk update (same argument as runBody).
		r.nDyn += 2
		r.cycles += int64(cw.cyc) + int64(in.cyc2)
		if cw.op == xICmpLT {
			// The dominant loop-bound compare, inlined past evalCmp.
			regs[cw.dst] = boolWord(int64(regs[cw.a]) < int64(regs[cw.b]))
		} else {
			regs[cw.dst] = evalCmp(cw.op, regs, cw.a, cw.b)
		}
		if cw.id == r.faultID {
			r.flipSlot(regs, cw.dst, cw.tbits)
		}
		e := in.ex1
		if regs[cw.dst]&1 != 0 {
			e = in.ex0
		}
		return r.takeEdgeC(fr, e)
	}
	r.nDyn++
	c1 := int64(cw.cyc)
	r.cycles += c1
	if p != nil {
		p.InstrCount[cw.id]++
		p.InstrCycles[cw.id] += c1
	}
	if r.nDyn > maxDyn {
		r.haltHang()
		return false
	}
	regs[cw.dst] = evalCmp(cw.op, regs, cw.a, cw.b)
	if cw.id == r.faultID {
		r.flipSlot(regs, cw.dst, cw.tbits)
	}
	r.nDyn++
	c2 := int64(in.cyc2)
	r.cycles += c2
	if p != nil {
		p.InstrCount[in.id2]++
		p.InstrCycles[in.id2] += c2
	}
	if r.nDyn > maxDyn {
		r.haltHang()
		return false
	}
	e := in.ex1
	if regs[cw.dst]&1 != 0 {
		e = in.ex0
	}
	return r.takeEdgeC(fr, e)
}

// hCmpBr executes a fused compare+branch: two accounted instructions in
// one dispatch, with the branch re-reading the (possibly flipped)
// comparison result.
func hCmpBr(r *Runner, t *thread, fr *frame, in *iword) bool {
	regs := fr.regs
	if p := r.prof; p == nil && r.nDyn+2 <= r.cfg.MaxDynInstrs {
		// Unprofiled with headroom: neither half can trap or hang, so both
		// halves account in one bulk update (same argument as runBody).
		r.nDyn += 2
		r.cycles += int64(in.cyc) + int64(in.cyc2)
		if xop(in.bfn) == xICmpLT {
			// The dominant loop-bound compare, inlined past evalCmp.
			regs[in.dst] = boolWord(int64(regs[in.a]) < int64(regs[in.b]))
		} else {
			regs[in.dst] = evalCmp(xop(in.bfn), regs, in.a, in.b)
		}
		if in.id == r.faultID {
			r.flipSlot(regs, in.dst, in.tbits)
		}
		e := in.ex1
		if regs[in.dst]&1 != 0 {
			e = in.ex0
		}
		return r.takeEdgeC(fr, e)
	}
	if !r.acct(in) {
		return false
	}
	regs[in.dst] = evalCmp(xop(in.bfn), regs, in.a, in.b)
	if in.id == r.faultID {
		r.flipSlot(regs, in.dst, in.tbits)
	}
	r.nDyn++
	cyc2 := int64(in.cyc2)
	r.cycles += cyc2
	if p := r.prof; p != nil {
		p.InstrCount[in.id2]++
		p.InstrCycles[in.id2] += cyc2
	}
	if r.nDyn > r.cfg.MaxDynInstrs {
		r.haltHang()
		return false
	}
	e := in.ex1
	if regs[in.dst]&1 != 0 {
		e = in.ex0
	}
	return r.takeEdgeC(fr, e)
}

// hCmpEqDetect executes the fused duplication check inherited from the
// decoder, with profile and fault guards for the shared handler table.
func hCmpEqDetect(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !r.acct(in) {
		return false
	}
	regs := fr.regs
	regs[in.dst] = boolWord(regs[in.a] == regs[in.b])
	if in.id == r.faultID {
		r.flipSlot(regs, in.dst, in.tbits)
	}
	r.nDyn++
	cyc2 := int64(in.cyc2)
	r.cycles += cyc2
	if p := r.prof; p != nil {
		p.InstrCount[in.id2]++
		p.InstrCycles[in.id2] += cyc2
	}
	if r.nDyn > r.cfg.MaxDynInstrs {
		r.haltHang()
		return false
	}
	if regs[in.dst]&1 == 0 {
		r.haltDetected()
		return false
	}
	fr.pc++
	return true
}

// callIDOf returns the static ID a frame must remember for return-value
// fault injection: the call's ID when it produces a result, else -1.
func callIDOf(in *iword) int32 {
	if in.c != 0 {
		return in.id
	}
	return -1
}

func hCall(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !r.acct(in) {
		return false
	}
	if t.callDepth >= r.cfg.MaxCallDepth {
		r.haltTrap("call depth exceeded")
		return false
	}
	callee := r.comp.funcs[in.id2]
	args := r.argScratch[:in.b]
	pool := r.comp.img.argPool[in.a:]
	regs := fr.regs
	for k := range args {
		args[k] = regs[pool[k]]
	}
	fr.pc++
	r.pushCFrame(t, callee, args, int(in.dst), callIDOf(in), in.tbits)
	if p := r.prof; p != nil {
		p.BlockCount[callee.ifn.entryBlock]++
	}
	return true
}

func hSpawn(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !r.acct(in) {
		return false
	}
	if len(r.threads) >= r.cfg.MaxThreads {
		r.haltTrap("thread limit exceeded")
		return false
	}
	callee := r.comp.funcs[in.id2]
	args := r.argScratch[:in.b]
	pool := r.comp.img.argPool[in.a:]
	regs := fr.regs
	for k := range args {
		args[k] = regs[pool[k]]
	}
	nt := r.newThread()
	r.pushCFrame(nt, callee, args, -1, -1, 0)
	if p := r.prof; p != nil {
		p.BlockCount[callee.ifn.entryBlock]++
	}
	fr.pc++
	return true
}

func hRet(r *Runner, t *thread, fr *frame, in *iword) bool {
	if !r.acct(in) {
		return false
	}
	hasVal := in.op == xRet
	var rv uint64
	if hasVal {
		rv = fr.regs[in.a]
	}
	t.sp = fr.spSave
	retDst, callID, ctb := fr.retDst, fr.callID, fr.callTBits
	t.frames = t.frames[:len(t.frames)-1]
	t.callDepth--
	if len(t.frames) == 0 {
		t.done = true
		return false
	}
	if hasVal && retDst >= 0 {
		caller := &t.frames[len(t.frames)-1]
		caller.regs[retDst] = rv
		if callID >= 0 && callID == r.faultID {
			r.flipSlot(caller.regs, int32(retDst), ctb)
		}
	}
	return true
}

func init() {
	// Binary/unary value ops route through the shared evaluators; wr
	// applies the result write, fault flip, and pc advance.
	val := func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		r.wr(fr, in, r.execPure(fr.regs, in))
		return true
	}
	for op := 0; op < xNumOps; op++ {
		if pureOp(xop(op)) {
			cHandlers[op] = val
		}
	}

	cHandlers[xDiv] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if r.acct(in) && r.execSVO(fr, in) {
			fr.pc++
			return true
		}
		return false
	}
	cHandlers[xRem] = cHandlers[xDiv]
	cHandlers[xFToI] = cHandlers[xDiv]
	cHandlers[xLoad] = cHandlers[xDiv]
	cHandlers[xStore] = cHandlers[xDiv]

	cHandlers[xAlloca] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		n := int64(fr.regs[in.a])
		if n < 0 || t.sp+int(n) > t.stackEnd {
			r.haltTrap("stack overflow")
			return false
		}
		res := uint64(t.sp)
		clear(r.mem[t.sp : t.sp+int(n)])
		t.sp += int(n)
		r.wr(fr, in, res)
		return true
	}

	cHandlers[xBr] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		return r.acct(in) && r.takeEdgeC(fr, in.ex0)
	}
	cHandlers[xCondBr] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		e := in.ex1
		if fr.regs[in.a]&1 != 0 {
			e = in.ex0
		}
		return r.takeEdgeC(fr, e)
	}
	cHandlers[xRet] = hRet
	cHandlers[xRetVoid] = hRet

	cHandlers[xEntryPhi] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		if in.a < 0 {
			r.haltTrap("phi with no matching predecessor")
			return false
		}
		r.wr(fr, in, fr.regs[in.a])
		return true
	}
	cHandlers[xLonePhi] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		if fr.phiSrc < 0 {
			r.haltTrap("phi with no matching predecessor")
			return false
		}
		r.wr(fr, in, fr.regs[fr.phiSrc])
		return true
	}

	cHandlers[xMidPhi] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		src := r.comp.img.midSrc[fr.midOff+in.b]
		if src < 0 {
			r.haltTrap("phi with no matching predecessor")
			return false
		}
		r.wr(fr, in, fr.regs[src])
		return true
	}

	cHandlers[xCall] = hCall
	cHandlers[xSpawn] = hSpawn
	cHandlers[xJoin] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		fr.pc++
		if !r.othersDone(t) {
			t.joining = true
			return false
		}
		return true
	}
	cHandlers[xDetect] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		if fr.regs[in.a]&1 == 0 {
			r.haltDetected()
			return false
		}
		fr.pc++
		return true
	}
	cHandlers[xEmit] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if !r.acct(in) {
			return false
		}
		if len(r.out) >= r.cfg.MaxOutputWords {
			r.haltTrap("output overflow")
			return false
		}
		r.out = append(r.out, fr.regs[in.a])
		fr.pc++
		return true
	}
	cHandlers[xCmpEqDetect] = hCmpEqDetect
	cHandlers[xTrapOp] = func(r *Runner, t *thread, fr *frame, in *iword) bool {
		if r.acct(in) {
			r.haltTrap(r.comp.img.traps[in.a])
		}
		return false
	}

	cHandlers[xRun] = hRun
	cHandlers[xCmpBr] = hCmpBr
	cHandlers[xRunBr] = hRunBr
	cHandlers[xRunCmpBr] = hRunCmpBr
}
