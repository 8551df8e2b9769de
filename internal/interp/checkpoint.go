package interp

import (
	"errors"
	"slices"
	"sort"
	"unsafe"
)

// This file implements golden checkpoints. A fault-armed trial of a
// campaign executes exactly the golden (fault-free) run up to its
// injection point, so re-executing that prefix for every trial is pure
// waste. A capture run executes the module fault-free once and records
// its complete machine state at evenly spaced dispatch boundaries; a
// trial then resumes from the last checkpoint that precedes its injection
// point and returns a Result identical, field for field, to a run from
// the start.
//
// A checkpoint holds everything a dispatch boundary's continuation reads:
//   - machine memory up to the stack's high-water mark (the highest
//     nonzero word), not just up to sp: words above sp left by returned
//     frames stay readable by a flipped pointer, and everything above
//     the mark is still zero;
//   - the frames, with copies of their register files, re-pointed
//     from the specialized stream the capture ran to the exact stream a
//     fault-armed run executes (both share offsets, and on fault-free
//     runs they compute the same registers);
//   - the dynamic instruction and cycle counters and the output prefix;
//   - per static instruction, the number of flip opportunities already
//     passed, which a restored run loads into its occurrence counter.
//
// Flip-opportunity counts are not profile counts: a call's flip lands in
// its return value, so a call whose frame is still live at the checkpoint
// has been counted by the profile but not yet passed as a flip site.
//
// Only single-threaded modules are captured: a spawning module's state
// includes the round-robin schedule's position inside each thread's
// quantum, which is not a dispatch-boundary property of one thread.
//
// Checkpoints sit at quantum boundaries: the capture takes each one at
// the end of the quantum in which its due instruction count was crossed.
// A trial restored there runs its quanta in step with the capture's, so
// after its fault has fired it can compare its state with each later
// checkpoint between quanta, at no per-dispatch cost. When the state
// equals a checkpoint's exactly (same nDyn, cycles, frames, registers,
// memory and output length), the rest of the trial is the capture's
// suffix: execution reads nothing the comparison left out, and the
// output is only ever appended to. The trial then ends early with its
// own output prefix followed by the capture's remaining output
// (converging to golden, as GangES ends error simulations).

// Capture refusals: why a Runner cannot checkpoint its module.
var (
	ErrCaptureSpawn  = errors.New("interp: cannot checkpoint a module that spawns threads")
	ErrCaptureLegacy = errors.New("interp: checkpoints need the compiled engine")
)

// Checkpoints is the product of one capture run: golden machine states of
// one module under one binding and configuration. It is immutable after
// Capture returns, so any number of Runners may resume from it
// concurrently.
type Checkpoints struct {
	comp *Compiled
	cfg  Config
	bind Binding
	res  Result // the capture run's own outcome

	// Memory layout of the captured run.
	globalBase []int
	globalLen  []int
	globalsEnd int

	pts   []checkpoint
	bytes int64
}

// capture is the state of one capture run.
type capture struct {
	ck                  *Checkpoints
	prof                *Profile
	every, next, budget int64
	voidRets            map[int32]int64 // value-less returns of result calls, per call ID
	flips               []int64         // scratch for the next checkpoint's flip counts
}

// checkpoint is one golden machine state at a dispatch boundary. Memory,
// register files and flip counts are held in pages of ckPage words; a
// page equal to the previous checkpoint's page at the same place is
// shared with it.
type checkpoint struct {
	nDyn, cycles  int64
	sp, callDepth int
	mem           [][]uint64
	out           []uint64
	frames        []frame      // register files live in regs
	regs          [][][]uint64 // per frame
	flips         [][]int64
}

// ckPage is the page size, in words, at which consecutive checkpoints
// share unchanged memory, registers and flip counts.
const ckPage = 32

// flip returns p's flip-opportunity count for static instruction id.
func (p *checkpoint) flip(id int) int64 { return p.flips[id/ckPage][id%ckPage] }

// paged splits cur into ckPage-word pages, sharing every page equal to
// prev's page at the same index, and adds the words it copied to *fresh.
func paged[T comparable](prev [][]T, cur []T, fresh *int64) [][]T {
	out := make([][]T, (len(cur)+ckPage-1)/ckPage)
	for i := range out {
		pg := cur[i*ckPage : min((i+1)*ckPage, len(cur))]
		if i < len(prev) && slices.Equal(prev[i], pg) {
			out[i] = prev[i]
		} else {
			out[i] = slices.Clone(pg)
			*fresh += int64(len(pg))
		}
	}
	return out
}

// Result returns the outcome of the capture run. A caller comparing it
// with its golden run detects a capture that did not reproduce golden.
func (ck *Checkpoints) Result() Result { return ck.res }

// Capture runs the module fault-free under bind and records a checkpoint
// at the first dispatch boundary at or after every multiple of every
// dynamic instructions. Whenever the set outgrows budget bytes, every
// second checkpoint is dropped and the spacing doubles, so the survivors
// stay evenly spaced. Capture refuses (ErrCaptureSpawn, ErrCaptureLegacy)
// modules whose trials must run from the start.
func (r *Runner) Capture(bind Binding, every, budget int64) (*Checkpoints, error) {
	if r.resolveEngine() == EngineLegacy {
		return nil, ErrCaptureLegacy
	}
	if r.comp.img.hasSpawn {
		return nil, ErrCaptureSpawn
	}
	ck := &Checkpoints{comp: r.comp, cfg: r.cfg, bind: bind}
	every = max(every, 1)
	cs := &capture{ck: ck, prof: newProfile(r.mod, r.comp.img.edges), every: every, next: every, budget: budget}
	r.setup(bind)
	r.arm(nil, cs.prof)
	rc := obsCounters.Load()
	ck.globalBase = append([]int(nil), r.globalBase...)
	ck.globalLen = append([]int(nil), r.globalLen...)
	ck.globalsEnd = r.globalsEnd
	t := r.newThread()
	r.enterMain(t, bind.Args)
	r.schedule(func(t *thread, q int) { r.quantumCapture(cs, t, q) })
	r.prof = nil
	ck.res = r.result(true)
	if rc != nil {
		rc.recordRun(&ck.res, EngineCompiled, nil, 0, 0)
	}
	return ck, nil
}

// quantumCapture is quantumCompiled for capture runs: at the end of a
// quantum it takes the checkpoint that has come due.
func (r *Runner) quantumCapture(cs *capture, t *thread, q int) {
	if t.done || t.joining || r.halted {
		return
	}
	for i := 0; i < q; i++ {
		fr := &t.frames[len(t.frames)-1]
		in := &fr.code[fr.pc]
		if in.op == xRetVoid && fr.callID >= 0 {
			// A result call whose callee returns no value passes no flip
			// site (only unverified IR does this).
			if cs.voidRets == nil {
				cs.voidRets = make(map[int32]int64)
			}
			cs.voidRets[fr.callID]++
		}
		if !cHandlers[in.op](r, t, fr, in) {
			return
		}
	}
	if r.nDyn >= cs.next {
		cs.take(r, t)
	}
}

// take records the capture run's current state as a checkpoint.
func (cs *capture) take(r *Runner, t *thread) {
	ck := cs.ck
	hwm := len(r.mem)
	for hwm > t.sp && r.mem[hwm-1] == 0 {
		hwm--
	}
	flips := cs.flips[:0]
	flips = append(flips, cs.prof.InstrCount...)
	prev := &checkpoint{}
	if len(ck.pts) > 0 {
		prev = &ck.pts[len(ck.pts)-1]
	}
	p := checkpoint{
		nDyn: r.nDyn, cycles: r.cycles, sp: t.sp, callDepth: t.callDepth,
		out:    slices.Clone(r.out),
		frames: make([]frame, len(t.frames)),
		regs:   make([][][]uint64, len(t.frames)),
	}
	words := int64(len(p.out))
	for i, fr := range t.frames {
		cf := ck.comp.funcOf(fr.code)
		fr.code, fr.cruns = cf.code, cf.runs
		var prevRegs [][]uint64
		if i < len(prev.frames) && &prev.frames[i].code[0] == &fr.code[0] {
			prevRegs = prev.regs[i]
		}
		p.regs[i] = paged(prevRegs, fr.regs, &words)
		fr.regs = nil
		p.frames[i] = fr
		if fr.callID >= 0 {
			flips[fr.callID]-- // counted at the call, flips at its return
		}
	}
	for id, n := range cs.voidRets {
		flips[id] -= n
	}
	cs.flips = flips
	p.mem = paged(prev.mem, r.mem[:hwm], &words)
	p.flips = paged(prev.flips, flips, &words)
	ck.pts = append(ck.pts, p)
	ck.bytes += 8*words + ckOverhead
	for ck.bytes > cs.budget && len(ck.pts) > 0 {
		cs.thin()
	}
	cs.next = int64(len(ck.pts)+1) * cs.every
}

// thin drops every second checkpoint (those off the doubled grid) and
// doubles the spacing.
func (cs *capture) thin() {
	ck := cs.ck
	kept := ck.pts[:0]
	for i := 1; i < len(ck.pts); i += 2 {
		kept = append(kept, ck.pts[i])
	}
	clear(ck.pts[len(kept):])
	ck.pts = kept
	ck.bytes = ck.size()
	cs.every *= 2
}

// ckOverhead approximates a checkpoint's memory besides its words.
const ckOverhead = int64(unsafe.Sizeof(checkpoint{}))

// size returns the bytes the checkpoints hold, counting each shared page
// once.
func (ck *Checkpoints) size() int64 {
	var n int64
	seen := make(map[unsafe.Pointer]bool)
	page := func(base unsafe.Pointer, words int) {
		if !seen[base] {
			seen[base] = true
			n += int64(words)
		}
	}
	for i := range ck.pts {
		p := &ck.pts[i]
		for _, pg := range p.mem {
			page(unsafe.Pointer(&pg[0]), len(pg))
		}
		for _, pg := range p.flips {
			page(unsafe.Pointer(&pg[0]), len(pg))
		}
		for _, regs := range p.regs {
			for _, pg := range regs {
				page(unsafe.Pointer(&pg[0]), len(pg))
			}
		}
		n += int64(len(p.out))
	}
	return 8*n + int64(len(ck.pts))*ckOverhead
}

// funcOf returns the compiled function whose code stream (exact or
// specialized) code is.
func (c *Compiled) funcOf(code []iword) *cfunc {
	for _, cf := range c.funcs {
		if &code[0] == &cf.code[0] || &code[0] == &cf.spec[0] {
			return cf
		}
	}
	panic("interp: frame code belongs to no compiled function")
}

// Skip counts the golden-run instructions a resumed trial did not
// execute: Prefix before its restore point, and Suffix after the point
// where it converged to a golden checkpoint (zero when it did not).
type Skip struct{ Prefix, Suffix int64 }

// Total returns every instruction the trial skipped.
func (s Skip) Total() int64 { return s.Prefix + s.Suffix }

// Resume runs a fault-armed trial from the last checkpoint of ck whose
// flip-opportunity count for the fault's instruction is at most its
// DynIndex, or from the start when there is none. Once the fault has
// fired, the trial ends early if its state converges to a later
// checkpoint. Like RunScratch, the Result's Output aliases the Runner's
// buffer; it is identical to RunScratch(bind, fault, nil) with ck's
// binding. When ck was captured for another module, artifact or
// configuration, the trial runs from the start without either shortcut.
func (r *Runner) Resume(ck *Checkpoints, fault *Fault) (res Result, skip Skip) {
	if fault == nil || r.cfg != ck.cfg || r.resolveEngine() != EngineCompiled || r.comp != ck.comp {
		return r.run(ck.bind, fault, nil, false), Skip{}
	}
	next := ck.restoreIndex(fault) // pts[next:] lie after the restore point
	if next == 0 {
		r.setup(ck.bind)
		r.arm(fault, nil)
		r.enterMain(r.newThread(), ck.bind.Args)
	} else {
		p := &ck.pts[next-1]
		r.restore(ck, p)
		r.arm(fault, nil)
		r.faultSeen = p.flip(fault.InstrID)
		skip.Prefix = p.nDyn
	}
	rc := obsCounters.Load()
	r.miss = stateWord{region: missNone}
	var conv *checkpoint
	r.schedule(func(t *thread, q int) {
		r.quantumCompiled(t, q)
		if r.halted || t.done || r.faultSeen <= fault.DynIndex {
			return
		}
		for next < len(ck.pts) && ck.pts[next].nDyn < r.nDyn {
			next++
		}
		if next < len(ck.pts) && ck.pts[next].nDyn == r.nDyn && r.matches(&ck.pts[next], t) {
			conv = &ck.pts[next]
			r.halted = true
		}
	})
	if conv != nil {
		skip.Suffix = ck.res.DynInstrs - conv.nDyn
		r.out = append(r.out, ck.res.Output[len(r.out):]...)
		r.status, r.trap = ck.res.Status, ck.res.Trap
		r.nDyn, r.cycles = ck.res.DynInstrs, ck.res.Cycles
	}
	res = r.result(false)
	if rc != nil {
		rc.recordRun(&res, EngineCompiled, nil, 0, skip.Total())
	}
	return res, skip
}

// restoreIndex returns how many checkpoints precede the injection point
// of fault: a trial resumes from pts[restoreIndex-1], or from the start
// when it is 0. Flip counts never decrease from one checkpoint to the
// next.
func (ck *Checkpoints) restoreIndex(fault *Fault) int {
	if fault.InstrID < 0 || fault.InstrID >= len(ck.comp.img.mod.Instrs) {
		return 0
	}
	return sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i].flip(fault.InstrID) > fault.DynIndex })
}

// stateWord locates one word of a trial's machine state: a register of
// frame region, or a memory word when region is missMem.
type stateWord struct{ region, word int }

const (
	missNone = -2 // no mismatch seen yet
	missMem  = -1
)

// matches reports whether the running trial's state equals checkpoint p,
// which was taken at the trial's current nDyn. It first re-checks the
// word that mismatched at the trial's previous comparison, since a
// corruption that persists usually stays in place, and records the first
// mismatching word it finds.
func (r *Runner) matches(p *checkpoint, t *thread) bool {
	if r.cycles != p.cycles || t.sp != p.sp || t.callDepth != p.callDepth ||
		len(t.frames) != len(p.frames) || len(r.out) != len(p.out) {
		return false
	}
	for i := range t.frames {
		fr, pf := &t.frames[i], &p.frames[i]
		if &fr.code[0] != &pf.code[0] || fr.pc != pf.pc || fr.retDst != pf.retDst ||
			fr.spSave != pf.spSave || fr.callID != pf.callID || fr.callTBits != pf.callTBits ||
			fr.phiSrc != pf.phiSrc || fr.midOff != pf.midOff {
			return false
		}
	}
	if m := r.miss; m.region == missMem {
		if m.word < len(r.mem) && pagedWord(p.mem, m.word) != r.mem[m.word] {
			return false
		}
	} else if m.region >= 0 && m.region < len(t.frames) {
		if regs := t.frames[m.region].regs; m.word < len(regs) && pagedWord(p.regs[m.region], m.word) != regs[m.word] {
			return false
		}
	}
	for i := range t.frames {
		if w := firstDiff(p.regs[i], t.frames[i].regs); w >= 0 {
			r.miss = stateWord{region: i, word: w}
			return false
		}
	}
	if w := firstDiff(p.mem, r.mem); w >= 0 {
		r.miss = stateWord{region: missMem, word: w}
		return false
	}
	return true
}

// pagedWord returns word w of the paged words pgs, or zero past them.
func pagedWord(pgs [][]uint64, w int) uint64 {
	if pg := w / ckPage; pg < len(pgs) && w%ckPage < len(pgs[pg]) {
		return pgs[pg][w%ckPage]
	}
	return 0
}

// firstDiff returns the index of the first word of cur that differs from
// the paged words pgs, reading words past the pages as zero, or -1 when
// there is none.
func firstDiff(pgs [][]uint64, cur []uint64) int {
	off := 0
	for _, pg := range pgs {
		if off+len(pg) > len(cur) {
			return off // the checkpoint holds more words than cur
		}
		if !slices.Equal(pg, cur[off:off+len(pg)]) {
			for j, w := range pg {
				if cur[off+j] != w {
					return off + j
				}
			}
		}
		off += len(pg)
	}
	for j := off; j < len(cur); j++ {
		if cur[j] != 0 {
			return j
		}
	}
	return -1
}

// restore loads checkpoint p of ck into the Runner's machine state.
func (r *Runner) restore(ck *Checkpoints, p *checkpoint) {
	r.globalBase = append(r.globalBase[:0], ck.globalBase...)
	r.globalLen = append(r.globalLen[:0], ck.globalLen...)
	r.globalsEnd = ck.globalsEnd
	end := ck.globalsEnd + r.cfg.StackWords
	if cap(r.mem) < end {
		r.mem = make([]uint64, end)
	}
	r.mem = r.mem[:end]
	off := 0
	for _, pg := range p.mem {
		off += copy(r.mem[off:], pg)
	}
	clear(r.mem[off:])
	r.out = append(r.out[:0], p.out...)
	r.nDyn, r.cycles = p.nDyn, p.cycles
	r.status, r.trap, r.halted = StatusOK, "", false

	r.threads = r.threads[:0]
	t := r.threadSlot()
	t.sp, t.stackEnd, t.callDepth = p.sp, end, p.callDepth
	for i := range p.frames {
		fr := t.pushSlot()
		regs := fr.regs[:0]
		for _, pg := range p.regs[i] {
			regs = append(regs, pg...)
		}
		*fr = p.frames[i]
		fr.regs = regs
	}
}
