// Package interp executes ir.Module programs. It is the repository's
// stand-in for native execution in the original study: it runs the program,
// observes its output, accounts dynamic instructions and modeled cycles,
// profiles control-flow edges for the weighted CFG, and optionally injects
// a single-bit fault into the return value of one dynamic instruction —
// exactly the LLFI fault model.
//
// Execution is fully deterministic, including the round-robin scheduling of
// simulated threads, so fault-injection campaigns are reproducible.
package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Status classifies the outcome of one program execution.
type Status uint8

// Execution outcomes. These are the raw machine-level outcomes; package
// fault maps them (plus an output comparison) to Benign/SDC/etc.
const (
	StatusOK       Status = iota // ran to completion
	StatusCrash                  // trapped (memory fault, div-by-zero, ...)
	StatusHang                   // exceeded the dynamic-instruction budget
	StatusDetected               // a duplication check fired (OpDetect)
)

// String returns the outcome name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCrash:
		return "crash"
	case StatusHang:
		return "hang"
	case StatusDetected:
		return "detected"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// FaultOp selects how a fault perturbs the target value. The zero value
// is the XOR flip of the original single-bit model, so existing Fault
// literals keep their meaning.
type FaultOp uint8

const (
	// FaultXor flips bits: the single bit Bit, or the whole Mask when
	// Mask is nonzero (the classic transient-flip models).
	FaultXor FaultOp = iota
	// FaultStuckAt0 clears the Mask bits (a defective cell reading 0).
	FaultStuckAt0
	// FaultStuckAt1 sets the Mask bits (a defective cell reading 1).
	FaultStuckAt1
)

// String returns the operation name.
func (o FaultOp) String() string {
	switch o {
	case FaultStuckAt0:
		return "stuck-at-0"
	case FaultStuckAt1:
		return "stuck-at-1"
	default:
		return "xor"
	}
}

// Fault requests a perturbation of the return value of the DynIndex-th
// dynamic execution (0-based) of static instruction InstrID. The default
// model flips the single bit Bit; setting Mask to a nonzero value applies
// Op over the whole mask instead: FaultXor flips the mask bits (multi-bit
// faults, as studied by multi-bit resilience work the paper cites), and
// the stuck-at ops force them to 0 or 1 (hard-defect models). The mask is
// narrowed to the value width exactly as the single-bit path narrows Bit.
type Fault struct {
	InstrID  int
	DynIndex int64
	Bit      uint
	Mask     uint64  // nonzero: perturb these bits instead of Bit
	Op       FaultOp // how Mask perturbs the value (FaultXor flips)
}

// Binding supplies a program input: scalar arguments for main and the
// contents of input-bound global arrays.
type Binding struct {
	Args    []uint64            // raw words, one per main parameter
	Globals map[string][]uint64 // values for dynamically sized or overridden globals
}

// Engine selects the execution engine of a Runner.
type Engine uint8

const (
	// EngineAuto resolves to the package-level DefaultEngine.
	EngineAuto Engine = iota
	// EngineLegacy executes the reference tree-walking stepper below. It
	// defines the semantics; the compiled engine is differentially tested
	// against it.
	EngineLegacy
	// EngineCompiled executes the compiled form of the decoded program
	// image: superinstruction fusion plus direct-threaded handler-table
	// dispatch (see image.go, compile.go and dispatch.go). This is the
	// production engine, bit-identical to the legacy stepper and pinned
	// by the legacy-vs-compiled differential suite.
	EngineCompiled
)

// DefaultEngine is the engine used when Config.Engine is EngineAuto.
// Tests swap it to run whole pipelines on the legacy reference stepper.
var DefaultEngine = EngineCompiled

// String returns the engine's name.
func (e Engine) String() string {
	switch e {
	case EngineLegacy:
		return "legacy"
	case EngineCompiled:
		return "compiled"
	default:
		return "auto"
	}
}

// Config bounds an execution.
type Config struct {
	// MaxDynInstrs is the hang budget. Zero selects DefaultMaxDynInstrs.
	MaxDynInstrs int64
	// StackWords is the per-thread stack size in words. Zero selects a default.
	StackWords int
	// MaxOutputWords caps the output buffer (a fault can redirect a loop
	// into emitting unboundedly). Zero selects a default.
	MaxOutputWords int
	// MaxCallDepth bounds recursion. Zero selects a default.
	MaxCallDepth int
	// Quantum is the thread-scheduling quantum in instructions. Zero
	// selects a default.
	Quantum int
	// MaxThreads bounds simultaneously live simulated threads. A fault
	// that corrupts a spawn loop would otherwise allocate stacks without
	// bound. Zero selects a default.
	MaxThreads int
	// Engine selects the execution engine. The zero value (EngineAuto)
	// defers to the package-level DefaultEngine. Config stays comparable,
	// so caches keyed on it keep working.
	Engine Engine
}

// Defaults for Config fields.
const (
	DefaultMaxDynInstrs   = int64(200_000_000)
	DefaultStackWords     = 1 << 12
	DefaultMaxOutputWords = 1 << 16
	DefaultMaxCallDepth   = 256
	DefaultQuantum        = 64
	DefaultMaxThreads     = 64
)

func (c Config) withDefaults() Config {
	if c.MaxDynInstrs == 0 {
		c.MaxDynInstrs = DefaultMaxDynInstrs
	}
	if c.StackWords == 0 {
		c.StackWords = DefaultStackWords
	}
	if c.MaxOutputWords == 0 {
		c.MaxOutputWords = DefaultMaxOutputWords
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = DefaultMaxCallDepth
	}
	if c.Quantum == 0 {
		c.Quantum = DefaultQuantum
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = DefaultMaxThreads
	}
	return c
}

// Result reports one execution.
type Result struct {
	Status    Status
	Trap      string   // human-readable trap reason when Status == StatusCrash
	Output    []uint64 // the program's emitted words
	DynInstrs int64    // dynamic instructions executed
	Cycles    int64    // modeled cycles
	// OutputHash is an FNV-1a 64 hash over Output. Two runs of the same
	// module have equal outputs iff the hashes match is NOT guaranteed
	// (hashes can collide), but unequal hashes prove unequal outputs, so
	// campaigns use it as a fast reject before the exact word compare.
	OutputHash uint64
}

// hashWords computes the FNV-1a 64 hash of a word slice.
func hashWords(words []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range words {
		for i := 0; i < 64; i += 8 {
			h ^= (w >> i) & 0xff
			h *= prime64
		}
	}
	return h
}

// Profile accumulates dynamic execution statistics when attached to a run.
// Slices are indexed by module-wide instruction / basic-block IDs. Edge
// executions are counted in a dense slice indexed by the static CSR edge
// table (see EdgeIndex) instead of a map keyed by block pairs.
type Profile struct {
	InstrCount  []int64 // dynamic executions per static instruction
	InstrCycles []int64 // modeled cycles per static instruction
	BlockCount  []int64 // executions per global basic block

	// Edges is the static edge numbering; EdgeHits[i] counts executions of
	// Edges.Edge(i). The numbering is deterministic, so an index built here
	// and one built by the program image agree.
	Edges    *EdgeIndex
	EdgeHits []int64

	// extra catches edges outside the static table (only reachable if a
	// caller mutates the module between NewProfile and Run; stays nil in
	// normal operation).
	extra map[[2]int]int64
}

// NewProfile returns a Profile sized for m.
func NewProfile(m *ir.Module) *Profile { return newProfile(m, NewEdgeIndex(m)) }

// newProfile returns a Profile sized for m over its edge index e.
func newProfile(m *ir.Module, e *EdgeIndex) *Profile {
	return &Profile{
		InstrCount:  make([]int64, m.NumInstrs()),
		InstrCycles: make([]int64, m.NumInstrs()),
		BlockCount:  make([]int64, m.NumBlocks()),
		Edges:       e,
		EdgeHits:    make([]int64, e.NumEdges()),
	}
}

// addEdge counts one execution of the edge (from, to) in global block
// indices. The legacy stepper calls this on every branch; the compiled
// engine increments EdgeHits directly by precomputed edge number.
func (p *Profile) addEdge(from, to int) {
	if i := p.Edges.Lookup(from, to); i >= 0 {
		p.EdgeHits[i]++
		return
	}
	if p.extra == nil {
		p.extra = make(map[[2]int]int64)
	}
	p.extra[[2]int{from, to}]++
}

// EdgeCount returns the execution count of edge (from, to) in global block
// indices.
func (p *Profile) EdgeCount(from, to int) int64 {
	if i := p.Edges.Lookup(from, to); i >= 0 {
		return p.EdgeHits[i]
	}
	return p.extra[[2]int{from, to}]
}

// EdgeCountMap materializes the edge counters as the map view the profile
// historically exposed. Hot paths should iterate EdgeHits instead.
func (p *Profile) EdgeCountMap() map[[2]int]int64 {
	m := make(map[[2]int]int64, len(p.EdgeHits))
	for i, c := range p.EdgeHits {
		if c == 0 {
			continue
		}
		from, to := p.Edges.Edge(i)
		m[[2]int{from, to}] = c
	}
	for e, c := range p.extra {
		m[e] += c
	}
	return m
}

// frame is one function activation. Both engines share the struct; the
// legacy stepper uses fn/block/prevBlock, the compiled engine uses a code
// stream and a flat pc, plus precomputed return-flip metadata
// (callID/callTBits) so a return needs no *ir.Instr.
type frame struct {
	fn        *ir.Function
	regs      []uint64
	block     int       // legacy: current block index within fn
	prevBlock int       // legacy: predecessor block (for phi resolution)
	pc        int       // legacy: index into block; compiled: offset into code
	spSave    int       // thread stack pointer at entry, restored at return
	retDst    int       // caller register to receive the return value (-1: none)
	callInstr *ir.Instr // the OpCall that created this frame (nil for entry/spawn)
	callID    int32     // compiled: static ID of the creating call if it has a result, else -1
	callTBits uint8     // compiled: flip width of the call's result type
	phiSrc    int32     // compiled: incoming slot for a pending xLonePhi (-1: no match)
	midOff    int32     // compiled: Image.midSrc offset of the current block's xMidPhi slots

	// Compiled engine only: the run-mode code stream (exact under a
	// fault, specialized otherwise) and the xRun constituent table
	// matching that stream.
	code  []iword
	cruns []iword
}

// thread is one simulated thread of execution.
type thread struct {
	frames    []frame
	sp        int // stack pointer (word index into machine memory)
	stackEnd  int // exclusive stack limit
	done      bool
	joining   bool // blocked in OpJoin
	callDepth int
}

// Runner executes one module repeatedly, reusing scratch memory between
// runs. A Runner is not safe for concurrent use; fault-injection campaigns
// give each worker its own Runner.
type Runner struct {
	mod *ir.Module
	cfg Config

	mem        []uint64
	globalBase []int
	globalLen  []int
	globalsEnd int

	out     []uint64
	threads []*thread

	nDyn   int64
	cycles int64

	fault     *Fault
	faultSeen int64
	faultID   int32 // fault.InstrID, pre-narrowed for the dispatch loop

	// miss is where a resumed trial's state last differed from a golden
	// checkpoint (checkpoint.go).
	miss stateWord

	prof   *Profile
	tracer *Tracer

	status Status
	trap   string
	halted bool

	// Compiled-engine state: the compiled artifact and per-run scratch
	// buffers (call-argument staging, phi-group staging), sized once per
	// artifact.
	comp       *Compiled
	argScratch []uint64
	phiVals    []uint64

	// threadPool retains thread structs (and through them frame slices and
	// register files) across runs; threads[i] aliases threadPool[i].
	threadPool []*thread
}

// reservedLow is the unmapped "null page" at the bottom of memory; loads
// and stores there trap, mimicking a null-pointer dereference.
const reservedLow = 16

// NewRunner returns a Runner for m with configuration cfg.
func NewRunner(m *ir.Module, cfg Config) *Runner {
	return &Runner{mod: m, cfg: cfg.withDefaults()}
}

// Module returns the module this runner executes.
func (r *Runner) Module() *ir.Module { return r.mod }

// Run executes the module's main function under the given input binding.
// fault, if non-nil, injects a single-bit flip; prof, if non-nil, receives
// dynamic execution statistics.
func (r *Runner) Run(bind Binding, fault *Fault, prof *Profile) Result {
	return r.run(bind, fault, prof, true)
}

// RunScratch is Run without the defensive copy of the output buffer: the
// returned Result.Output aliases the Runner's internal buffer and is valid
// only until the next run. Campaign loops use it (they hash/compare the
// output and move on); everyone else should call Run.
func (r *Runner) RunScratch(bind Binding, fault *Fault, prof *Profile) Result {
	return r.run(bind, fault, prof, false)
}

// resolveEngine picks the engine for the next run, fetching the module's
// compiled artifact when the Runner has none for its current snapshot.
// Tracing and modules the decoder cannot lower always use the legacy
// stepper, which defines the semantics.
func (r *Runner) resolveEngine() Engine {
	e := r.cfg.Engine
	if e == EngineAuto {
		e = DefaultEngine
	}
	if r.tracer != nil || e == EngineLegacy {
		return EngineLegacy
	}
	if r.comp == nil || r.comp.img.version != r.mod.Version() {
		r.comp = compiledOf(r.mod)
		r.sizeScratch()
	}
	if r.comp.img.legacyOnly {
		return EngineLegacy
	}
	return EngineCompiled
}

// sizeScratch sizes the per-run staging buffers for the current artifact.
func (r *Runner) sizeScratch() {
	if n := r.comp.img.maxArgs; cap(r.argScratch) < n {
		r.argScratch = make([]uint64, n)
	}
	if n := r.comp.img.maxPhi; cap(r.phiVals) < n {
		r.phiVals = make([]uint64, n)
	}
}

func (r *Runner) run(bind Binding, fault *Fault, prof *Profile, copyOut bool) Result {
	r.setup(bind)
	r.arm(fault, prof)

	rc := obsCounters.Load()
	var edgeBase int64
	if rc != nil && prof != nil {
		edgeBase = edgeTotal(prof)
	}

	eng := r.resolveEngine()
	t := r.newThread()
	if eng == EngineLegacy {
		r.pushFrame(t, r.mod.Funcs[r.mod.Entry()], bind.Args, -1)
		r.schedule(r.runQuantum)
	} else {
		r.enterMain(t, bind.Args)
		r.schedule(r.quantumCompiled)
	}

	res := r.result(copyOut)
	if rc != nil {
		rc.recordRun(&res, eng, prof, edgeBase, 0)
	}
	return res
}

// arm sets the run mode: the fault to inject (nil: none) and the profile
// to fill (nil: none).
func (r *Runner) arm(fault *Fault, prof *Profile) {
	r.fault = fault
	r.faultSeen = 0
	r.prof = prof
	// Pin faultID to the no-match sentinel on unarmed runs: the compiled
	// engine's shared handlers compare instruction IDs against it
	// unconditionally, so a stale ID from a previous faulty run must
	// never survive into an unarmed one.
	r.faultID = -1
	if fault != nil {
		r.faultID = int32(fault.InstrID)
	}
}

// enterMain pushes the compiled entry function's frame onto t.
func (r *Runner) enterMain(t *thread, args []uint64) {
	main := r.comp.funcs[r.mod.Entry()]
	r.pushCFrame(t, main, args, -1, -1, 0)
	if r.prof != nil {
		r.prof.BlockCount[main.ifn.entryBlock]++
	}
}

// result packages the finished run's outcome; copyOut detaches Output
// from the Runner's buffer.
func (r *Runner) result(copyOut bool) Result {
	out := r.out
	if copyOut {
		out = append([]uint64(nil), r.out...)
	}
	return Result{
		Status:     r.status,
		Trap:       r.trap,
		Output:     out,
		DynInstrs:  r.nDyn,
		Cycles:     r.cycles,
		OutputHash: hashWords(r.out),
	}
}

func (r *Runner) setup(bind Binding) {
	m := r.mod
	if r.globalBase == nil {
		r.globalBase = make([]int, len(m.Globals))
		r.globalLen = make([]int, len(m.Globals))
	}
	base := reservedLow
	for i, g := range m.Globals {
		size := g.Size
		if size < 0 {
			v, ok := bind.Globals[g.Name]
			if !ok {
				panic(fmt.Sprintf("interp: no binding for dynamic global %q", g.Name))
			}
			size = len(v)
		}
		r.globalBase[i] = base
		r.globalLen[i] = size
		base += size
	}
	r.globalsEnd = base

	if cap(r.mem) < base {
		r.mem = make([]uint64, base)
	} else {
		r.mem = r.mem[:base]
		clear(r.mem)
	}
	for i, g := range m.Globals {
		dst := r.mem[r.globalBase[i] : r.globalBase[i]+r.globalLen[i]]
		if v, ok := bind.Globals[g.Name]; ok {
			copy(dst, v)
		} else if g.Init != nil {
			copy(dst, g.Init)
		}
	}

	r.out = r.out[:0]
	r.threads = r.threads[:0]
	r.nDyn = 0
	r.cycles = 0
	r.status = StatusOK
	r.trap = ""
	r.halted = false
}

func (r *Runner) newThread() *thread {
	start := len(r.mem)
	if n := start + r.cfg.StackWords; cap(r.mem) >= n {
		r.mem = r.mem[:n]
		clear(r.mem[start:])
	} else {
		r.mem = append(r.mem, make([]uint64, r.cfg.StackWords)...)
	}
	t := r.threadSlot()
	t.sp = start
	t.stackEnd = start + r.cfg.StackWords
	return t
}

// threadSlot appends a reset thread to r.threads, reusing a pooled one
// (and its frame and register storage) when available. The caller sets
// the stack bounds.
func (r *Runner) threadSlot() *thread {
	var t *thread
	if len(r.threads) < len(r.threadPool) {
		t = r.threadPool[len(r.threads)]
		t.frames = t.frames[:0]
		t.done = false
		t.joining = false
		t.callDepth = 0
	} else {
		t = &thread{}
		r.threadPool = append(r.threadPool, t)
	}
	r.threads = append(r.threads, t)
	return t
}

// pushSlot extends t's frame stack by one, reusing the slot (and its
// register backing array) from an earlier run when available. The caller
// must overwrite every field.
func (t *thread) pushSlot() *frame {
	if len(t.frames) < cap(t.frames) {
		t.frames = t.frames[:len(t.frames)+1]
	} else {
		t.frames = append(t.frames, frame{})
	}
	return &t.frames[len(t.frames)-1]
}

// frameRegs returns fr's register file resized to n words and zeroed,
// reusing the previous backing array when it is large enough (a cleared
// reused array is indistinguishable from a fresh allocation).
func frameRegs(fr *frame, n int) []uint64 {
	if cap(fr.regs) >= n {
		fr.regs = fr.regs[:n]
		clear(fr.regs)
	} else {
		fr.regs = make([]uint64, n)
	}
	return fr.regs
}

func (r *Runner) pushFrame(t *thread, fn *ir.Function, args []uint64, retDst int) {
	r.pushFrameFor(t, fn, args, retDst, nil)
}

func (r *Runner) pushFrameFor(t *thread, fn *ir.Function, args []uint64, retDst int, call *ir.Instr) {
	fr := t.pushSlot()
	regs := frameRegs(fr, fn.NumRegs)
	copy(regs, args)
	*fr = frame{
		fn:        fn,
		regs:      regs,
		spSave:    t.sp,
		retDst:    retDst,
		callInstr: call,
		callID:    -1,
	}
	t.callDepth++
	r.noteBlockEntry(fn.Index, 0, -1)
}

// schedule runs all threads round-robin, quantum instructions at a time,
// until every thread finishes or the machine halts (trap, hang, detect).
// runQ is the engine-specific quantum executor; the scheduling policy is
// shared so both engines interleave threads identically.
func (r *Runner) schedule(runQ func(*thread, int)) {
	q := r.cfg.Quantum
	for !r.halted {
		alive := 0
		progressed := false
		for _, t := range r.threads {
			if t.done {
				continue
			}
			alive++
			if t.joining && !r.othersDone(t) {
				continue
			}
			t.joining = false
			runQ(t, q)
			progressed = true
			if r.halted {
				return
			}
		}
		if alive == 0 {
			return
		}
		if !progressed {
			// Every live thread is blocked in join: deadlock. Treat as hang.
			r.haltHang()
			return
		}
	}
}

func (r *Runner) othersDone(self *thread) bool {
	for _, t := range r.threads {
		if t != self && !t.done {
			return false
		}
	}
	return true
}

func (r *Runner) haltHang() {
	r.status = StatusHang
	r.halted = true
}

func (r *Runner) haltTrap(reason string) {
	r.status = StatusCrash
	r.trap = reason
	r.halted = true
}

func (r *Runner) haltDetected() {
	r.status = StatusDetected
	r.halted = true
}

// Trap-message formatters shared by both engines (the differential tests
// compare Result.Trap byte-for-byte).
func loadOOB(p uint64) string  { return fmt.Sprintf("load out of bounds (addr %d)", int64(p)) }
func storeOOB(p uint64) string { return fmt.Sprintf("store out of bounds (addr %d)", int64(p)) }

// runQuantum executes up to q instructions on t.
func (r *Runner) runQuantum(t *thread, q int) {
	for i := 0; i < q; i++ {
		if t.done || t.joining || r.halted {
			return
		}
		r.step(t)
	}
}

// val resolves an operand against the current frame's registers.
func val(fr *frame, o ir.Operand) uint64 {
	switch o.Kind {
	case ir.OperReg:
		return fr.regs[o.Reg]
	case ir.OperConst:
		return uint64(o.Imm)
	case ir.OperConstF:
		return math.Float64bits(o.FImm)
	default:
		panic("interp: unresolved operand")
	}
}

func asF(x uint64) float64   { return math.Float64frombits(x) }
func fromF(x float64) uint64 { return math.Float64bits(x) }

// step executes one instruction of thread t.
func (r *Runner) step(t *thread) {
	fr := &t.frames[len(t.frames)-1]
	blk := fr.fn.Blocks[fr.block]
	in := blk.Instrs[fr.pc]

	r.nDyn++
	cyc := in.Op.Cycles()
	r.cycles += cyc
	if r.prof != nil {
		r.prof.InstrCount[in.ID]++
		r.prof.InstrCycles[in.ID] += cyc
	}
	if r.nDyn > r.cfg.MaxDynInstrs {
		r.haltHang()
		return
	}
	if r.tracer != nil && (!in.HasResult() || in.Op == ir.OpCall) {
		r.tracer.note(fr.fn, in, fr.regs, 0, false)
	}

	var res uint64
	hasRes := in.HasResult()

	switch in.Op {
	case ir.OpAdd:
		res = uint64(int64(val(fr, in.Args[0])) + int64(val(fr, in.Args[1])))
	case ir.OpSub:
		res = uint64(int64(val(fr, in.Args[0])) - int64(val(fr, in.Args[1])))
	case ir.OpMul:
		res = uint64(int64(val(fr, in.Args[0])) * int64(val(fr, in.Args[1])))
	case ir.OpDiv:
		a, b := int64(val(fr, in.Args[0])), int64(val(fr, in.Args[1]))
		if b == 0 {
			r.haltTrap("integer divide by zero")
			return
		}
		if a == math.MinInt64 && b == -1 {
			r.haltTrap("integer divide overflow")
			return
		}
		res = uint64(a / b)
	case ir.OpRem:
		a, b := int64(val(fr, in.Args[0])), int64(val(fr, in.Args[1]))
		if b == 0 {
			r.haltTrap("integer remainder by zero")
			return
		}
		if a == math.MinInt64 && b == -1 {
			r.haltTrap("integer remainder overflow")
			return
		}
		res = uint64(a % b)
	case ir.OpAnd:
		res = val(fr, in.Args[0]) & val(fr, in.Args[1])
	case ir.OpOr:
		res = val(fr, in.Args[0]) | val(fr, in.Args[1])
	case ir.OpXor:
		res = val(fr, in.Args[0]) ^ val(fr, in.Args[1])
	case ir.OpShl:
		res = uint64(int64(val(fr, in.Args[0])) << (val(fr, in.Args[1]) & 63))
	case ir.OpShr:
		res = uint64(int64(val(fr, in.Args[0])) >> (val(fr, in.Args[1]) & 63))

	case ir.OpFAdd:
		res = fromF(asF(val(fr, in.Args[0])) + asF(val(fr, in.Args[1])))
	case ir.OpFSub:
		res = fromF(asF(val(fr, in.Args[0])) - asF(val(fr, in.Args[1])))
	case ir.OpFMul:
		res = fromF(asF(val(fr, in.Args[0])) * asF(val(fr, in.Args[1])))
	case ir.OpFDiv:
		res = fromF(asF(val(fr, in.Args[0])) / asF(val(fr, in.Args[1])))

	case ir.OpICmp:
		a, b := int64(val(fr, in.Args[0])), int64(val(fr, in.Args[1]))
		res = boolWord(icmp(in.Pred, a, b))
	case ir.OpFCmp:
		a, b := asF(val(fr, in.Args[0])), asF(val(fr, in.Args[1]))
		res = boolWord(fcmp(in.Pred, a, b))

	case ir.OpIToF:
		res = fromF(float64(int64(val(fr, in.Args[0]))))
	case ir.OpFToI:
		f := asF(val(fr, in.Args[0]))
		if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
			r.haltTrap("float-to-int out of range")
			return
		}
		res = uint64(int64(f))

	case ir.OpAlloca:
		n := int64(val(fr, in.Args[0]))
		if n < 0 || t.sp+int(n) > t.stackEnd {
			r.haltTrap("stack overflow")
			return
		}
		res = uint64(t.sp)
		for i := t.sp; i < t.sp+int(n); i++ {
			r.mem[i] = 0
		}
		t.sp += int(n)
	case ir.OpLoad:
		p := val(fr, in.Args[0])
		if p < reservedLow || p >= uint64(len(r.mem)) {
			r.haltTrap(loadOOB(p))
			return
		}
		res = r.mem[p]
	case ir.OpStore:
		p := val(fr, in.Args[1])
		if p < reservedLow || p >= uint64(len(r.mem)) {
			r.haltTrap(storeOOB(p))
			return
		}
		r.mem[p] = val(fr, in.Args[0])
	case ir.OpGEP:
		res = uint64(int64(val(fr, in.Args[0])) + int64(val(fr, in.Args[1])))
	case ir.OpGlobalAddr:
		res = uint64(r.globalBase[in.Global])
	case ir.OpArrayLen:
		res = uint64(r.globalLen[in.Global])

	case ir.OpBr:
		r.branch(t, fr, in.Succs[0])
		return
	case ir.OpCondBr:
		c := val(fr, in.Args[0])&1 != 0
		target := in.Succs[1]
		if c {
			target = in.Succs[0]
		}
		r.branch(t, fr, target)
		return
	case ir.OpRet:
		var rv uint64
		if len(in.Args) == 1 {
			rv = val(fr, in.Args[0])
		}
		r.doReturn(t, rv, len(in.Args) == 1)
		return
	case ir.OpPhi:
		// Phi nodes have parallel-assignment semantics: all phis at a
		// block head read their incoming values simultaneously. branch()
		// executes whole phi groups; a lone leading phi also lands here
		// (group of one), where sequential execution is equivalent.
		found := false
		for i, b := range in.Succs {
			if b == fr.prevBlock {
				res = val(fr, in.Args[i])
				found = true
				break
			}
		}
		if !found {
			r.haltTrap("phi with no matching predecessor")
			return
		}

	case ir.OpCall:
		if t.callDepth >= r.cfg.MaxCallDepth {
			r.haltTrap("call depth exceeded")
			return
		}
		callee := r.mod.Funcs[in.Callee]
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = val(fr, a)
		}
		fr.pc++ // resume after the call
		r.pushFrameFor(t, callee, args, in.Dst, in)
		return
	case ir.OpCallB:
		ok := r.builtin(t, fr, in, &res)
		if !ok {
			return
		}
	case ir.OpSelect:
		if val(fr, in.Args[0])&1 != 0 {
			res = val(fr, in.Args[1])
		} else {
			res = val(fr, in.Args[2])
		}

	case ir.OpSpawn:
		if len(r.threads) >= r.cfg.MaxThreads {
			r.haltTrap("thread limit exceeded")
			return
		}
		callee := r.mod.Funcs[in.Callee]
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = val(fr, a)
		}
		nt := r.newThread()
		// newThread may grow r.mem; frame pointers remain valid because
		// frames index memory via r.mem directly.
		r.pushFrame(nt, callee, args, -1)
		fr.pc++
		return
	case ir.OpJoin:
		fr.pc++
		if !r.othersDone(t) {
			t.joining = true
		}
		return
	case ir.OpDetect:
		if val(fr, in.Args[0])&1 == 0 {
			r.haltDetected()
			return
		}

	default:
		r.haltTrap(fmt.Sprintf("unimplemented opcode %s", in.Op))
		return
	}

	if hasRes {
		fr.regs[in.Dst] = res
		r.flip(in, fr, hasRes, res)
		if r.tracer != nil {
			r.tracer.note(fr.fn, in, fr.regs, fr.regs[in.Dst], true)
		}
	}
	fr.pc++
}

// flip applies the pending fault if this dynamic execution of in is the
// injection target.
func (r *Runner) flip(in *ir.Instr, fr *frame, hasRes bool, _ uint64) {
	if r.fault == nil || in.ID != r.fault.InstrID || !hasRes {
		return
	}
	if r.faultSeen == r.fault.DynIndex {
		mask := r.fault.Mask
		if in.Type == ir.I1 {
			mask &= 1
		}
		switch {
		case r.fault.Op == FaultStuckAt0:
			fr.regs[in.Dst] &^= mask
		case r.fault.Op == FaultStuckAt1:
			fr.regs[in.Dst] |= mask
		case r.fault.Mask != 0:
			fr.regs[in.Dst] ^= mask
		default:
			bit := r.fault.Bit % in.Type.Bits()
			fr.regs[in.Dst] ^= 1 << bit
		}
	}
	r.faultSeen++
}

// branch transfers control within the current function and executes the
// target block's leading phi group with parallel-assignment semantics:
// every phi reads its incoming value against the *pre-branch* register
// state before any phi result is written. This matters when phis at one
// block head reference each other's results (e.g. a swap produced by
// mem2reg).
func (r *Runner) branch(t *thread, fr *frame, target int) {
	if target < 0 || target >= len(fr.fn.Blocks) {
		r.haltTrap("branch to invalid block")
		return
	}
	from := fr.block
	fr.prevBlock = from
	fr.block = target
	fr.pc = 0
	r.noteBlockEntry(fr.fn.Index, target, from)

	blk := fr.fn.Blocks[target]
	nPhi := 0
	for nPhi < len(blk.Instrs) && blk.Instrs[nPhi].Op == ir.OpPhi {
		nPhi++
	}
	if nPhi < 2 {
		// Zero or one phi: the regular step path is equivalent.
		return
	}
	// Gather all incoming values first, then write, accounting each phi
	// as one executed instruction (they remain fault-injection sites).
	vals := make([]uint64, nPhi)
	for i := 0; i < nPhi; i++ {
		in := blk.Instrs[i]
		found := false
		for j, b := range in.Succs {
			if b == from {
				vals[i] = val(fr, in.Args[j])
				found = true
				break
			}
		}
		if !found {
			r.haltTrap("phi with no matching predecessor")
			return
		}
	}
	for i := 0; i < nPhi; i++ {
		in := blk.Instrs[i]
		r.nDyn++
		cyc := in.Op.Cycles()
		r.cycles += cyc
		if r.prof != nil {
			r.prof.InstrCount[in.ID]++
			r.prof.InstrCycles[in.ID] += cyc
		}
		if r.nDyn > r.cfg.MaxDynInstrs {
			r.haltHang()
			return
		}
		fr.regs[in.Dst] = vals[i]
		r.flip(in, fr, true, vals[i])
	}
	fr.pc = nPhi
	_ = t
}

func (r *Runner) noteBlockEntry(fn, block, from int) {
	if r.prof == nil {
		return
	}
	g := r.mod.GlobalBlockIndex(fn, block)
	r.prof.BlockCount[g]++
	if from >= 0 {
		r.prof.addEdge(r.mod.GlobalBlockIndex(fn, from), g)
	}
}

// doReturn pops the current frame, writing the return value into the
// caller's destination register. The write is a fault-injection site: the
// call instruction's "return value" in the LLFI sense is the value the
// caller receives.
func (r *Runner) doReturn(t *thread, rv uint64, hasVal bool) {
	fr := &t.frames[len(t.frames)-1]
	t.sp = fr.spSave
	retDst := fr.retDst
	call := fr.callInstr
	t.frames = t.frames[:len(t.frames)-1]
	t.callDepth--
	if len(t.frames) == 0 {
		t.done = true
		return
	}
	caller := &t.frames[len(t.frames)-1]
	if hasVal && retDst >= 0 {
		caller.regs[retDst] = rv
		if call != nil && call.HasResult() {
			r.flip(call, caller, true, rv)
		}
	}
}

// builtin executes an OpCallB. It returns false if the machine halted.
func (r *Runner) builtin(t *thread, fr *frame, in *ir.Instr, res *uint64) bool {
	switch in.BFunc {
	case ir.BuiltinEmitI, ir.BuiltinEmitF:
		if len(r.out) >= r.cfg.MaxOutputWords {
			r.haltTrap("output overflow")
			return false
		}
		r.out = append(r.out, val(fr, in.Args[0]))
	case ir.BuiltinSqrt:
		*res = fromF(math.Sqrt(asF(val(fr, in.Args[0]))))
	case ir.BuiltinFabs:
		*res = fromF(math.Abs(asF(val(fr, in.Args[0]))))
	case ir.BuiltinExp:
		*res = fromF(math.Exp(asF(val(fr, in.Args[0]))))
	case ir.BuiltinLog:
		*res = fromF(math.Log(asF(val(fr, in.Args[0]))))
	case ir.BuiltinSin:
		*res = fromF(math.Sin(asF(val(fr, in.Args[0]))))
	case ir.BuiltinCos:
		*res = fromF(math.Cos(asF(val(fr, in.Args[0]))))
	case ir.BuiltinPow:
		*res = fromF(math.Pow(asF(val(fr, in.Args[0])), asF(val(fr, in.Args[1]))))
	case ir.BuiltinFloor:
		*res = fromF(math.Floor(asF(val(fr, in.Args[0]))))
	case ir.BuiltinIAbs:
		v := int64(val(fr, in.Args[0]))
		if v < 0 {
			v = -v
		}
		*res = uint64(v)
	default:
		r.haltTrap(fmt.Sprintf("unknown builtin %d", in.BFunc))
		return false
	}
	_ = t
	return true
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func icmp(p ir.Pred, a, b int64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	default:
		return a >= b
	}
}

func fcmp(p ir.Pred, a, b float64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	default:
		return a >= b
	}
}
