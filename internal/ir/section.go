package ir

import (
	"crypto/sha256"
	"fmt"
	"sort"
)

// This file implements the stable section partitioner behind the
// compositional (FastFlip-style) campaign pipeline: every function is
// split into sections — whole small functions, and loop regions plus the
// residual body for large ones — and every section carries a canonical
// content hash that is independent of module-wide instruction numbering.
// An edit therefore changes exactly the hashes of the sections whose
// instructions it touches, which is what lets the artifact store reuse
// per-section campaign results across edits (DESIGN.md §13).

// SectionKind classifies a section of the partition.
type SectionKind uint8

const (
	// SectionFunc covers a whole function that was not subdivided.
	SectionFunc SectionKind = iota
	// SectionLoop covers one natural-loop region of a large function.
	SectionLoop
	// SectionBody covers the non-loop remainder of a subdivided function.
	SectionBody
)

// String returns the kind name used in reports.
func (k SectionKind) String() string {
	switch k {
	case SectionLoop:
		return "loop"
	case SectionBody:
		return "body"
	default:
		return "func"
	}
}

// LoopSectionMinInstrs is the subdivision threshold: functions with at
// least this many static instructions are split into loop regions (when
// they have any back edge) so an edit inside one loop does not invalidate
// the rest of the function.
const LoopSectionMinInstrs = 24

// Section is one element of a module's partition: a set of whole basic
// blocks of a single function. Sections never span functions and every
// block belongs to exactly one section.
type Section struct {
	Index    int    // position in SectionSet.Sections
	Func     int    // function index
	FuncName string // function name (part of the canonical identity)
	SecIdx   int    // ordinal within the function
	Kind     SectionKind
	Blocks   []int // block indices within Func, ascending
	Instrs   []int // module-wide static instruction IDs, ascending
	// Hash is the canonical content hash of the section: function name,
	// signature, register-file size, and the ID-free rendering of every
	// instruction in every member block. Module-wide instruction IDs are
	// deliberately excluded so an edit elsewhere in the module cannot
	// change the hash of an untouched section.
	Hash [sha256.Size]byte
}

// Name returns the stable human-readable section name ("fn", "fn#loopN",
// or "fn#body").
func (s *Section) Name() string {
	switch s.Kind {
	case SectionLoop:
		return fmt.Sprintf("%s#loop%d", s.FuncName, s.SecIdx)
	case SectionBody:
		return s.FuncName + "#body"
	default:
		return s.FuncName
	}
}

// SectionSet is the partition of one module snapshot.
type SectionSet struct {
	Mod      *Module
	Sections []*Section
	byInstr  []int // instr ID -> section index (total: every ID maps)
}

// SectionOf returns the index of the section containing static
// instruction id.
func (ss *SectionSet) SectionOf(id int) int { return ss.byInstr[id] }

// FuncSections returns the indices of function fi's sections, in order.
func (ss *SectionSet) FuncSections(fi int) []int {
	var out []int
	for _, s := range ss.Sections {
		if s.Func == fi {
			out = append(out, s.Index)
		}
	}
	return out
}

type sectionsKey struct{}

// PartitionSections returns the section partition of m's current
// finalized snapshot, computing it on first use.
func PartitionSections(m *Module) *SectionSet {
	return Derived(m, sectionsKey{}, partition)
}

// partition computes the section partition of m.
func partition(m *Module) *SectionSet {
	ss := &SectionSet{Mod: m, byInstr: make([]int, len(m.Instrs))}
	for fi, f := range m.Funcs {
		for _, blocks := range splitFunc(f) {
			sec := &Section{
				Index:    len(ss.Sections),
				Func:     fi,
				FuncName: f.Name,
				Blocks:   blocks,
			}
			for _, bi := range blocks {
				for _, in := range f.Blocks[bi].Instrs {
					sec.Instrs = append(sec.Instrs, in.ID)
					ss.byInstr[in.ID] = sec.Index
				}
			}
			sort.Ints(sec.Instrs)
			ss.Sections = append(ss.Sections, sec)
		}
	}
	// Assign per-function ordinals and kinds, then hash. Kinds depend on
	// how many sections the function produced.
	perFunc := make(map[int][]*Section)
	for _, sec := range ss.Sections {
		perFunc[sec.Func] = append(perFunc[sec.Func], sec)
	}
	for fi, secs := range perFunc {
		f := m.Funcs[fi]
		for i, sec := range secs {
			sec.SecIdx = i
			switch {
			case len(secs) == 1:
				sec.Kind = SectionFunc
			case isLoopSection(f, sec.Blocks):
				sec.Kind = SectionLoop
			default:
				sec.Kind = SectionBody
			}
			sec.Hash = sectionHash(f, sec)
		}
	}
	return ss
}

// splitFunc partitions one function's blocks into section block lists,
// each ascending, ordered by smallest member block. Small functions and
// functions without back edges yield a single list of all blocks.
func splitFunc(f *Function) [][]int {
	n := len(f.Blocks)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	instrs := 0
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
	}
	if instrs < LoopSectionMinInstrs || n < 2 {
		return [][]int{all}
	}
	succs := make([][]int, n)
	preds := make([][]int, n)
	for i, b := range f.Blocks {
		if t := b.Terminator(); t != nil {
			succs[i] = t.Succs
		}
	}
	for from, ss := range succs {
		for _, to := range ss {
			preds[to] = append(preds[to], from)
		}
	}
	loops := findLoops(n, succs, preds)
	if len(loops) == 0 {
		return [][]int{all}
	}
	// Assign each block to the largest loop body containing it (the
	// outermost enclosing loop); ties break on the smaller header so the
	// assignment is deterministic.
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for li, lp := range loops {
		for b := range lp.body {
			if owner[b] == -1 ||
				len(loops[owner[b]].body) < len(lp.body) ||
				(len(loops[owner[b]].body) == len(lp.body) && lp.header < loops[owner[b]].header) {
				owner[b] = li
			}
		}
	}
	groups := make(map[int][]int) // owner (-1 = body) -> blocks
	for b := 0; b < n; b++ {
		groups[owner[b]] = append(groups[owner[b]], b)
	}
	var out [][]int
	for _, blocks := range groups {
		sort.Ints(blocks)
		out = append(out, blocks)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// loop is one natural loop: a back-edge header plus every block that can
// reach one of its back edges without leaving through the header.
type loop struct {
	header int
	body   map[int]bool
}

// findLoops detects natural loops from DFS back edges. It is
// self-contained (package ir cannot import the analysis framework) and
// purely structural, so the result is stable across edits to other
// functions.
func findLoops(n int, succs, preds [][]int) []loop {
	color := make([]uint8, n) // 0 white, 1 gray (on stack), 2 black
	type edge struct{ from, to int }
	var backs []edge
	type frame struct{ block, next int }
	stack := []frame{{0, 0}}
	color[0] = 1
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(succs[fr.block]) {
			s := succs[fr.block][fr.next]
			fr.next++
			switch color[s] {
			case 0:
				color[s] = 1
				stack = append(stack, frame{s, 0})
			case 1:
				backs = append(backs, edge{fr.block, s})
			}
			continue
		}
		color[fr.block] = 2
		stack = stack[:len(stack)-1]
	}
	byHeader := make(map[int]*loop)
	var headers []int
	for _, e := range backs {
		lp := byHeader[e.to]
		if lp == nil {
			lp = &loop{header: e.to, body: map[int]bool{e.to: true}}
			byHeader[e.to] = lp
			headers = append(headers, e.to)
		}
		// Backward walk from the latch, stopping at the header.
		work := []int{e.from}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if lp.body[b] {
				continue
			}
			lp.body[b] = true
			work = append(work, preds[b]...)
		}
	}
	sort.Ints(headers)
	out := make([]loop, 0, len(headers))
	for _, h := range headers {
		out = append(out, *byHeader[h])
	}
	return out
}

// isLoopSection reports whether the section's blocks contain a back edge
// internal to the section (distinguishing loop sections from the body
// remainder after subdivision).
func isLoopSection(f *Function, blocks []int) bool {
	in := make(map[int]bool, len(blocks))
	for _, b := range blocks {
		in[b] = true
	}
	// A loop section is one whose first block is the target of an edge
	// from inside the section (its back edge); the body remainder never
	// is, because loop headers own their loops.
	head := blocks[0]
	for _, b := range blocks {
		if t := f.Blocks[b].Terminator(); t != nil {
			for _, s := range t.Succs {
				if s == head && in[b] {
					return true
				}
			}
		}
	}
	return false
}

// sectionHash computes the canonical content hash of one section. The
// rendering is function-local: register numbers, block indices, callee
// and global indices, but never module-wide instruction IDs.
func sectionHash(f *Function, sec *Section) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "section/v1 %s idx=%d kind=%s\n", f.Name, sec.SecIdx, sec.Kind)
	fmt.Fprintf(h, "sig (")
	for i, p := range f.Params {
		if i > 0 {
			fmt.Fprint(h, ",")
		}
		fmt.Fprint(h, p.String())
	}
	fmt.Fprintf(h, ") %s regs=%d\n", f.Ret, f.NumRegs)
	for _, bi := range sec.Blocks {
		b := f.Blocks[bi]
		fmt.Fprintf(h, "bb%d %s\n", bi, b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(h, "  %s\n", in.String())
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
