package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// This file implements the decoder of the compiled engine: it lowers an
// ir.Module once into a flat, dense program image, which the compile step
// (compile.go) rewrites into the code streams the dispatch loop
// (dispatch.go) executes without any per-step operand kind switches, map
// hashing, or feature checks.
//
// The lowering performs:
//   - operand specialization: every operand becomes an index into the
//     frame's register file; constants are folded into a per-function
//     constant pool that occupies the slots above NumRegs and is copied
//     in with one memcpy at frame entry;
//   - branch resolution: branch targets become code offsets, and every
//     static CFG edge gets a precompiled "edge program" that performs the
//     target block's phi moves (parallel-assignment semantics) with the
//     incoming values already resolved to slots, and records where the
//     incoming slots of the target's mid-block phis live;
//   - comparison specialization: icmp/fcmp predicates are folded into the
//     opcode, and a detector check that immediately follows its icmp-eq
//     (the shape emitted by the SID duplication transform) is fused into
//     a single image opcode;
//   - static precomputation: instruction IDs, modeled cycles, flip widths,
//     and the dense CSR edge numbering are all baked into the image.
//
// Decoding never changes semantics: executed as decoded (the form the
// compiled engine runs for spawning modules), the image is bit-identical
// to the reference stepper in interp.go (enforced by the differential
// tests), including trap messages, dynamic instruction accounting,
// hang-budget boundaries, fault-injection site numbering, and — because a
// lone leading phi occupies its own interpreter step in the reference
// engine — the round-robin thread schedule.

// xop is a specialized image opcode.
type xop uint8

const (
	xAdd xop = iota
	xSub
	xMul
	xDiv
	xRem
	xAnd
	xOr
	xXor
	xShl
	xShr
	xFAdd
	xFSub
	xFMul
	xFDiv

	// Comparisons with the predicate folded into the opcode. The xICmp
	// and xFCmp groups must each stay in ir.Pred order (EQ NE LT LE GT GE).
	xICmpEQ
	xICmpNE
	xICmpLT
	xICmpLE
	xICmpGT
	xICmpGE
	xFCmpEQ
	xFCmpNE
	xFCmpLT
	xFCmpLE
	xFCmpGT
	xFCmpGE

	xIToF
	xFToI

	xAlloca
	xLoad
	xStore
	xGEP
	xGlobalAddr
	xArrayLen

	xBr
	xCondBr
	xRet     // returns the value in slot a
	xRetVoid // returns no value

	// xEntryPhi is a member of an entry-block phi group (>= 2 leading
	// phis of block 0), pre-resolved against predecessor 0 and executed
	// sequentially on function entry, like the reference stepper.
	xEntryPhi
	// xLonePhi is a block's single leading phi. It executes as its own
	// step; the incoming slot was resolved by the edge program (or frame
	// entry) into frame.phiSrc.
	xLonePhi
	// xMidPhi is a phi after the block's leading phi run (sid.Duplicate
	// places a duplicated phi's checked copy there). It executes as its
	// own step with the reference stepper's sequential semantics, reading
	// the register file as the preceding instructions left it. The
	// incoming slot is Image.midSrc[frame.midOff+b]: the edge into the
	// block (or frame entry) recorded midOff, and b is the phi's ordinal
	// among the block's mid-block phis.
	xMidPhi

	xCall
	xSelect
	xSpawn
	xJoin
	xDetect

	// Builtins, one opcode each (no BFunc dispatch at run time).
	xEmit
	xSqrt
	xFabs
	xExp
	xLog
	xSin
	xCos
	xPow
	xFloor
	xIAbs

	// xCmpEqDetect is the fused duplication check: icmp eq a, b into dst,
	// immediately followed by detect dst. It accounts as two dynamic
	// instructions (ids id/id2, cycles cyc/cyc2) exactly like the unfused
	// pair.
	xCmpEqDetect

	// xTrapOp halts with a decode-time-known trap message (traps[a]) after
	// performing the instruction's normal dynamic accounting, matching the
	// reference stepper's behavior for unimplemented opcodes.
	xTrapOp
)

// iword is one decoded instruction. All slot fields index the frame's
// register file (registers first, then the constant pool).
type iword struct {
	op    xop
	tbits uint8 // fault-flip width of the result (1 or 64)
	bfn   uint8 // builtin index (diagnostics only; dispatch is by op)
	cyc   int16 // modeled cycles
	cyc2  int16 // fused detect: cycles of the detect half
	dst   int32 // destination slot (-1: none)
	a     int32 // operand slot or payload (see opcode)
	b     int32 // operand slot or payload
	c     int32 // operand slot or payload / call-has-result flag
	id    int32 // static instruction ID
	id2   int32 // fused detect: detect's ID; call/spawn: callee index
	ex0   int32 // br/condbr: edge number of the (first) target, -1 = invalid
	ex1   int32 // condbr: edge number of the else target, -1 = invalid
}

// phiMove is one phi assignment of an edge program. src < 0 marks a phi
// with no incoming value for this edge.
type phiMove struct {
	dst, src int32
	id       int32
	cyc      int16
	tbits    uint8
}

// edgeProg is the precompiled transfer along one static CFG edge: where
// to resume, which global block was entered (for profiling), and the phi
// moves to perform with parallel-assignment semantics.
type edgeProg struct {
	target   int32 // code offset where execution resumes in the target block
	dstBlock int32 // global block index of the target
	moves    []phiMove
	lone     bool // target has exactly one leading phi: stash moves[0].src in frame.phiSrc
	trap     bool // a phi group (>=2) is missing an incoming value: trap before accounting
	// direct marks a move group whose destinations don't overlap its
	// sources: parallel-assignment semantics then coincide with sequential
	// writes, so executors may skip the snapshot buffer.
	direct bool
	// midOff is the offset into Image.midSrc of the incoming slots, for
	// this edge, of the target's mid-block phis (in block order); the
	// edge stores it in frame.midOff.
	midOff int32
}

// ifunc is one decoded function.
type ifunc struct {
	fn          *ir.Function
	code        []iword
	consts      []uint64 // constant pool, loaded into the slots after nRegs
	nRegs       int
	entryBlock  int32 // global block index of block 0
	entryPhiSrc int32 // lone entry phi: incoming slot for predecessor 0 (-1: none)
	entryMidOff int32 // Image.midSrc offset of block 0's mid-block phis for predecessor 0

	// Block layout, recorded for the compile step (compile.go): block bi's
	// words occupy code[blockOff[bi]:blockOff[bi+1]] (len nBlocks+1), and
	// edgeEntry[bi] is the offset where a branch edge resumes in bi (after
	// an entry-block phi group, at a lone leading phi otherwise).
	blockOff  []int32
	edgeEntry []int32
}

// Image is a fully decoded module.
type Image struct {
	mod     *ir.Module
	version uint64
	funcs   []*ifunc
	edges   *EdgeIndex
	// edgeProgs is indexed by the dense edge number of edges.
	edgeProgs []edgeProg
	argPool   []int32
	traps     []string
	maxArgs   int // widest callee parameter list
	maxPhi    int // largest leading phi group
	hasSpawn  bool
	// legacyOnly marks a module the decoder cannot faithfully lower
	// (malformed operands, value ops or phis without a result register).
	// The Runner silently falls back to the reference stepper, which
	// defines the semantics of such modules.
	legacyOnly bool
	// midSrc holds, per (edge, mid-block phi of its target), the incoming
	// slot of the phi for that edge (-1: the phi lists no such
	// predecessor); edge programs and function entry index it by midOff.
	midSrc []int32
}

// LegacyOnly reports whether the decoder bailed out and execution will use
// the reference stepper.
func (img *Image) LegacyOnly() bool { return img.legacyOnly }

// Lower decodes m (which must be finalized) into a program image.
func Lower(m *ir.Module) *Image {
	img := &Image{mod: m, version: m.Version(), edges: NewEdgeIndex(m)}
	img.edgeProgs = make([]edgeProg, img.edges.NumEdges())
	for _, f := range m.Funcs {
		if len(f.Params) > img.maxArgs {
			img.maxArgs = len(f.Params)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSpawn {
					img.hasSpawn = true
				}
			}
		}
	}
	for _, f := range m.Funcs {
		img.funcs = append(img.funcs, img.decodeFunc(f))
		if img.legacyOnly {
			return img
		}
	}
	return img
}

// trapIndex interns a trap message and returns its table index.
func (img *Image) trapIndex(msg string) int32 {
	for i, t := range img.traps {
		if t == msg {
			return int32(i)
		}
	}
	img.traps = append(img.traps, msg)
	return int32(len(img.traps) - 1)
}

// decodeFunc lowers one function.
func (img *Image) decodeFunc(f *ir.Function) *ifunc {
	ifn := &ifunc{
		fn:          f,
		nRegs:       f.NumRegs,
		entryBlock:  int32(img.mod.GlobalBlockIndex(f.Index, 0)),
		entryPhiSrc: -1,
	}
	constSlot := make(map[uint64]int32)
	intern := func(w uint64) int32 {
		s, ok := constSlot[w]
		if !ok {
			s = int32(f.NumRegs + len(ifn.consts))
			constSlot[w] = s
			ifn.consts = append(ifn.consts, w)
		}
		return s
	}
	slotOf := func(o ir.Operand) int32 {
		switch o.Kind {
		case ir.OperReg:
			if o.Reg < 0 || o.Reg >= f.NumRegs {
				img.legacyOnly = true
				return 0
			}
			return int32(o.Reg)
		case ir.OperConst:
			return intern(uint64(o.Imm))
		case ir.OperConstF:
			return intern(math.Float64bits(o.FImm))
		default:
			img.legacyOnly = true
			return 0
		}
	}
	// phiSrcFor resolves the incoming slot of phi ph for predecessor pred,
	// or -1 when the phi lists no such predecessor.
	phiSrcFor := func(ph *ir.Instr, pred int) int32 {
		for i, pb := range ph.Succs {
			if pb == pred {
				return slotOf(ph.Args[i])
			}
		}
		return -1
	}

	// leadPhi[b] is the length of block b's leading phi run. A phi without
	// a destination register forces the legacy fallback.
	leadPhi := make([]int, len(f.Blocks))
	for bi, blk := range f.Blocks {
		n := 0
		for n < len(blk.Instrs) && blk.Instrs[n].Op == ir.OpPhi {
			n++
		}
		leadPhi[bi] = n
		if n > img.maxPhi {
			img.maxPhi = n
		}
		for _, in := range blk.Instrs {
			if in.Op == ir.OpPhi && in.Dst < 0 {
				img.legacyOnly = true
			}
		}
	}
	if img.legacyOnly {
		return ifn
	}
	// midSrcFor appends the incoming slots of block b's mid-block phis for
	// predecessor pred to img.midSrc and returns their offset.
	midSrcFor := func(b, pred int) int32 {
		off := int32(len(img.midSrc))
		for _, in := range f.Blocks[b].Instrs[leadPhi[b]:] {
			if in.Op == ir.OpPhi {
				img.midSrc = append(img.midSrc, phiSrcFor(in, pred))
			}
		}
		return off
	}
	ifn.entryMidOff = midSrcFor(0, 0)

	// Emit the code. A lone leading phi is emitted as an xLonePhi word at
	// the block's edge-entry offset: it runs as its own step (matching the
	// reference stepper's schedule), reading the slot the incoming edge
	// program stashed in the frame. An entry-block group of >= 2 phis is
	// emitted as sequential xEntryPhi words resolved against predecessor 0
	// (function entry only; branch edges land after them and perform the
	// group as a parallel edge program). Other leading phi groups are not
	// emitted at all — the edge programs do the work. A phi after the
	// leading run becomes an xMidPhi word in place.
	edgeEntry := make([]int32, len(f.Blocks))
	emit := func(w iword) { ifn.code = append(ifn.code, w) }
	for bi, blk := range f.Blocks {
		ifn.blockOff = append(ifn.blockOff, int32(len(ifn.code)))
		n := leadPhi[bi]
		switch {
		case n == 1:
			ph := blk.Instrs[0]
			edgeEntry[bi] = int32(len(ifn.code))
			emit(iword{op: xLonePhi, tbits: uint8(ph.Type.Bits()), cyc: int16(ph.Op.Cycles()),
				dst: int32(ph.Dst), a: -1, id: int32(ph.ID), ex0: -1, ex1: -1})
			if bi == 0 {
				ifn.entryPhiSrc = phiSrcFor(ph, 0)
			}
		case n >= 2 && bi == 0:
			for _, ph := range blk.Instrs[:n] {
				emit(iword{op: xEntryPhi, tbits: uint8(ph.Type.Bits()), cyc: int16(ph.Op.Cycles()),
					dst: int32(ph.Dst), a: phiSrcFor(ph, 0), id: int32(ph.ID), ex0: -1, ex1: -1})
			}
			edgeEntry[bi] = int32(len(ifn.code))
		default:
			edgeEntry[bi] = int32(len(ifn.code))
		}
		mid := int32(0)
		for _, in := range blk.Instrs[n:] {
			if in.Op == ir.OpPhi {
				emit(iword{op: xMidPhi, tbits: uint8(in.Type.Bits()), cyc: int16(in.Op.Cycles()),
					dst: int32(in.Dst), b: mid, id: int32(in.ID), ex0: -1, ex1: -1})
				mid++
				continue
			}
			img.emitInstr(ifn, f, bi, in, slotOf, emit)
			if img.legacyOnly {
				return ifn
			}
		}
	}
	ifn.blockOff = append(ifn.blockOff, int32(len(ifn.code)))
	ifn.edgeEntry = edgeEntry

	// Build the edge programs now that the offsets are known.
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
			ep := &img.edgeProgs[eid]
			*ep = edgeProg{
				target:   edgeEntry[s],
				dstBlock: int32(img.mod.GlobalBlockIndex(f.Index, s)),
				lone:     leadPhi[s] == 1,
				midOff:   midSrcFor(s, bi),
			}
			grouped := leadPhi[s] >= 2
			for _, ph := range f.Blocks[s].Instrs[:leadPhi[s]] {
				src := phiSrcFor(ph, bi)
				if src < 0 && grouped {
					// The reference stepper gathers a phi group before any
					// accounting and traps at the first missing value.
					ep.trap = true
					ep.moves = nil
					break
				}
				ep.moves = append(ep.moves, phiMove{
					dst: int32(ph.Dst), src: src, id: int32(ph.ID),
					cyc: int16(ph.Op.Cycles()), tbits: uint8(ph.Type.Bits()),
				})
			}
			if !ep.trap && !ep.lone {
				ep.direct = true
				for _, mv := range ep.moves {
					for _, other := range ep.moves {
						if mv.dst == other.src {
							ep.direct = false
						}
					}
				}
			}
		}
	}

	return ifn
}

// emitInstr lowers one non-phi instruction.
func (img *Image) emitInstr(ifn *ifunc, f *ir.Function, bi int, in *ir.Instr,
	slotOf func(ir.Operand) int32, emit func(iword)) {

	w := iword{
		tbits: uint8(in.Type.Bits()),
		cyc:   int16(in.Op.Cycles()),
		dst:   int32(in.Dst),
		id:    int32(in.ID),
		ex0:   -1, ex1: -1,
	}

	// Value-producing opcodes write regs[dst] unconditionally in the
	// dispatch handlers, so a missing destination register (malformed IR
	// the reference stepper tolerates by discarding the result) forces the
	// fallback.
	bin := func(op xop) {
		if in.Dst < 0 {
			img.legacyOnly = true
			return
		}
		w.op, w.a, w.b = op, slotOf(in.Args[0]), slotOf(in.Args[1])
		emit(w)
	}
	un := func(op xop) {
		if in.Dst < 0 {
			img.legacyOnly = true
			return
		}
		w.op, w.a = op, slotOf(in.Args[0])
		emit(w)
	}

	// edgeRef resolves a branch successor to its dense edge number, or -1
	// for an invalid target (runtime trap, like the reference stepper).
	edgeRef := func(s int) int32 {
		if s < 0 || s >= len(f.Blocks) {
			return -1
		}
		return int32(img.edges.Lookup(img.mod.GlobalBlockIndex(f.Index, bi), img.mod.GlobalBlockIndex(f.Index, s)))
	}

	switch in.Op {
	case ir.OpAdd:
		bin(xAdd)
	case ir.OpSub:
		bin(xSub)
	case ir.OpMul:
		bin(xMul)
	case ir.OpDiv:
		bin(xDiv)
	case ir.OpRem:
		bin(xRem)
	case ir.OpAnd:
		bin(xAnd)
	case ir.OpOr:
		bin(xOr)
	case ir.OpXor:
		bin(xXor)
	case ir.OpShl:
		bin(xShl)
	case ir.OpShr:
		bin(xShr)
	case ir.OpFAdd:
		bin(xFAdd)
	case ir.OpFSub:
		bin(xFSub)
	case ir.OpFMul:
		bin(xFMul)
	case ir.OpFDiv:
		bin(xFDiv)
	case ir.OpICmp:
		if in.Pred > ir.PredGE {
			img.legacyOnly = true
			return
		}
		bin(xICmpEQ + xop(in.Pred))
	case ir.OpFCmp:
		if in.Pred > ir.PredGE {
			img.legacyOnly = true
			return
		}
		bin(xFCmpEQ + xop(in.Pred))
	case ir.OpIToF:
		un(xIToF)
	case ir.OpFToI:
		un(xFToI)
	case ir.OpAlloca:
		un(xAlloca)
	case ir.OpLoad:
		un(xLoad)
	case ir.OpStore:
		w.op, w.a, w.b = xStore, slotOf(in.Args[0]), slotOf(in.Args[1]) // a = value, b = pointer
		emit(w)
	case ir.OpGEP:
		bin(xGEP)
	case ir.OpGlobalAddr:
		if in.Dst < 0 {
			img.legacyOnly = true
			return
		}
		w.op, w.a = xGlobalAddr, int32(in.Global)
		emit(w)
	case ir.OpArrayLen:
		if in.Dst < 0 {
			img.legacyOnly = true
			return
		}
		w.op, w.a = xArrayLen, int32(in.Global)
		emit(w)
	case ir.OpBr:
		w.op, w.ex0 = xBr, edgeRef(in.Succs[0])
		emit(w)
	case ir.OpCondBr:
		w.op, w.a = xCondBr, slotOf(in.Args[0])
		w.ex0, w.ex1 = edgeRef(in.Succs[0]), edgeRef(in.Succs[1])
		emit(w)
	case ir.OpRet:
		if len(in.Args) == 1 {
			w.op, w.a = xRet, slotOf(in.Args[0])
		} else {
			w.op, w.a = xRetVoid, -1
		}
		emit(w)
	case ir.OpCall, ir.OpSpawn:
		w.op = xCall
		if in.Op == ir.OpSpawn {
			w.op = xSpawn
		}
		if n := len(in.Args); n > img.maxArgs {
			img.maxArgs = n // arg staging must fit even malformed arg lists
		}
		w.a = int32(len(img.argPool))
		w.b = int32(len(in.Args))
		for _, a := range in.Args {
			img.argPool = append(img.argPool, slotOf(a))
		}
		w.id2 = int32(in.Callee)
		if in.HasResult() {
			w.c = 1
		}
		emit(w)
	case ir.OpCallB:
		w.bfn = uint8(in.BFunc)
		switch in.BFunc {
		case ir.BuiltinEmitI, ir.BuiltinEmitF:
			w.op, w.a = xEmit, slotOf(in.Args[0])
			emit(w)
		case ir.BuiltinSqrt:
			un(xSqrt)
		case ir.BuiltinFabs:
			un(xFabs)
		case ir.BuiltinExp:
			un(xExp)
		case ir.BuiltinLog:
			un(xLog)
		case ir.BuiltinSin:
			un(xSin)
		case ir.BuiltinCos:
			un(xCos)
		case ir.BuiltinPow:
			bin(xPow)
		case ir.BuiltinFloor:
			un(xFloor)
		case ir.BuiltinIAbs:
			un(xIAbs)
		default:
			w.op, w.a = xTrapOp, img.trapIndex(fmt.Sprintf("unknown builtin %d", in.BFunc))
			emit(w)
		}
	case ir.OpSelect:
		if in.Dst < 0 {
			img.legacyOnly = true
			return
		}
		w.op = xSelect
		w.a, w.b, w.c = slotOf(in.Args[0]), slotOf(in.Args[1]), slotOf(in.Args[2])
		emit(w)
	case ir.OpJoin:
		w.op = xJoin
		emit(w)
	case ir.OpDetect:
		// Fuse with an immediately preceding icmp-eq into the checked value
		// (the duplication-transform shape). Fusion executes both halves in
		// one dispatch, so it is restricted to modules without spawn: with
		// simulated threads the two-step quantum accounting of the unfused
		// pair is observable through the round-robin schedule.
		if !img.hasSpawn && len(ifn.code) > 0 && in.Args[0].Kind == ir.OperReg {
			if prevIn := prevInBlock(f, bi, in); prevIn != nil &&
				prevIn.Op == ir.OpICmp && prevIn.Pred == ir.PredEQ {
				prev := &ifn.code[len(ifn.code)-1]
				if prev.op == xICmpEQ && prev.id == int32(prevIn.ID) && prev.dst == int32(in.Args[0].Reg) {
					prev.op = xCmpEqDetect
					prev.id2 = int32(in.ID)
					prev.cyc2 = int16(in.Op.Cycles())
					return
				}
			}
		}
		w.op, w.a = xDetect, slotOf(in.Args[0])
		emit(w)
	default:
		w.op, w.a = xTrapOp, img.trapIndex(fmt.Sprintf("unimplemented opcode %s", in.Op))
		emit(w)
	}
}

// prevInBlock returns the instruction immediately before in within its
// block, or nil if in is the block's first instruction.
func prevInBlock(f *ir.Function, bi int, in *ir.Instr) *ir.Instr {
	blk := f.Blocks[bi]
	for i, x := range blk.Instrs {
		if x == in {
			if i == 0 {
				return nil
			}
			return blk.Instrs[i-1]
		}
	}
	return nil
}
