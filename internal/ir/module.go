package ir

import (
	"fmt"
	"strings"
)

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. Blocks are identified by their index within the function.
type Block struct {
	Index  int
	Name   string
	Instrs []*Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Function is an IR function. Parameters arrive in registers 0..len(Params)-1.
type Function struct {
	Index   int
	Name    string
	Params  []Type
	Ret     Type
	Blocks  []*Block
	NumRegs int // size of the register file a frame must allocate
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Global is a module-level data object living in the executor's global
// memory segment. Size is in 64-bit words; a negative Size means the length
// is supplied at bind time (input-dependent arrays).
type Global struct {
	Index int
	Name  string
	Size  int      // words; < 0 => dynamic, bound before execution
	Init  []uint64 // optional static initializer (len <= Size when Size >= 0)
}

// Module is a complete IR program.
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []*Global

	// Instrs is the module-wide static instruction table, indexed by
	// Instr.ID. Populated by Finalize.
	Instrs []*Instr

	// instrLoc[id] records where instruction id lives (for analyses that
	// need to map IDs back to program positions).
	instrLoc []InstrLoc

	funcByName   map[string]int
	globalByName map[string]int

	// blockBase[f] is the global basic-block index of function f's block 0.
	// Global block indices are what the weighted-CFG profiler uses, so one
	// indexed CFG list covers the whole program (paper Fig. 5).
	blockBase []int
	numBlocks int

	// version counts Finalize calls, so (pointer, version) names one
	// snapshot for consumers that hold derived data outside the module.
	version uint64

	// memo holds the values derived from the current snapshot (Derived).
	memo derivedMemo
}

// InstrLoc identifies the static position of an instruction.
type InstrLoc struct {
	Func  int // function index
	Block int // block index within the function
	Pos   int // position within the block
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		funcByName:   make(map[string]int),
		globalByName: make(map[string]int),
	}
}

// AddFunction appends a function shell and returns it.
func (m *Module) AddFunction(name string, params []Type, ret Type) *Function {
	f := &Function{Index: len(m.Funcs), Name: name, Params: params, Ret: ret}
	m.Funcs = append(m.Funcs, f)
	m.funcByName[name] = f.Index
	return f
}

// AddGlobal appends a global and returns it. size < 0 declares a
// dynamically sized (input-bound) array.
func (m *Module) AddGlobal(name string, size int, init []uint64) *Global {
	g := &Global{Index: len(m.Globals), Name: name, Size: size, Init: init}
	m.Globals = append(m.Globals, g)
	m.globalByName[name] = g.Index
	return g
}

// FuncByName resolves a function index by name.
func (m *Module) FuncByName(name string) (int, bool) {
	i, ok := m.funcByName[name]
	return i, ok
}

// GlobalByName resolves a global index by name.
func (m *Module) GlobalByName(name string) (int, bool) {
	i, ok := m.globalByName[name]
	return i, ok
}

// Entry returns the index of the program entry function ("main"), or -1.
func (m *Module) Entry() int {
	if i, ok := m.funcByName["main"]; ok {
		return i
	}
	return -1
}

// Finalize assigns module-wide instruction IDs and global basic-block
// indices, and rebuilds the static instruction table. It must be called
// after construction and after any transform that adds or removes
// instructions or blocks.
func (m *Module) Finalize() {
	m.version++
	m.dropDerived()
	m.Instrs = m.Instrs[:0]
	m.instrLoc = m.instrLoc[:0]
	m.blockBase = make([]int, len(m.Funcs))
	id := 0
	bb := 0
	for fi, f := range m.Funcs {
		m.blockBase[fi] = bb
		bb += len(f.Blocks)
		for bi, b := range f.Blocks {
			b.Index = bi
			for pi, in := range b.Instrs {
				in.ID = id
				id++
				m.Instrs = append(m.Instrs, in)
				m.instrLoc = append(m.instrLoc, InstrLoc{Func: fi, Block: bi, Pos: pi})
			}
		}
	}
	m.numBlocks = bb
}

// Version returns the module's finalization counter: it changes whenever
// Finalize re-numbers the module, so (pointer, Version) identifies one
// immutable snapshot of the instruction stream.
func (m *Module) Version() uint64 { return m.version }

// NumInstrs returns the number of static instructions (after Finalize).
func (m *Module) NumInstrs() int { return len(m.Instrs) }

// NumBlocks returns the number of basic blocks across all functions (after
// Finalize).
func (m *Module) NumBlocks() int { return m.numBlocks }

// GlobalBlockIndex converts (function, block) to the module-wide basic
// block index used by the weighted-CFG profiler.
func (m *Module) GlobalBlockIndex(fn, block int) int {
	return m.blockBase[fn] + block
}

// Loc returns the location of static instruction id (after Finalize).
func (m *Module) Loc(id int) InstrLoc { return m.instrLoc[id] }

// InjectableIDs returns the IDs of all instructions that are valid fault
// injection sites. If excludeDup is true, instructions inserted by the
// duplication transform are skipped (used when characterizing the original
// program rather than the protected binary).
func (m *Module) InjectableIDs(excludeDup bool) []int {
	ids := make([]int, 0, len(m.Instrs))
	for _, in := range m.Instrs {
		if !in.IsInjectable() {
			continue
		}
		if excludeDup && in.Dup {
			continue
		}
		ids = append(ids, in.ID)
	}
	return ids
}

// Clone returns a deep copy of the module. Transforms (duplication) work
// on clones so the pristine module can keep serving profiling runs. The
// copy starts with no derived values.
func (m *Module) Clone() *Module {
	cp := NewModule(m.Name)
	for _, g := range m.Globals {
		cp.AddGlobal(g.Name, g.Size, append([]uint64(nil), g.Init...))
	}
	for _, f := range m.Funcs {
		nf := cp.AddFunction(f.Name, append([]Type(nil), f.Params...), f.Ret)
		nf.NumRegs = f.NumRegs
		for _, b := range f.Blocks {
			nb := &Block{Index: b.Index, Name: b.Name}
			for _, in := range b.Instrs {
				nb.Instrs = append(nb.Instrs, in.Clone())
			}
			nf.Blocks = append(nf.Blocks, nb)
		}
	}
	cp.Finalize()
	return cp
}

// String renders the whole module as text, one instruction per line.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global @%s size=%d", g.Name, g.Size)
		if len(g.Init) > 0 {
			sb.WriteString(" init=")
			for i, v := range g.Init {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%d", v)
			}
		}
		sb.WriteByte('\n')
	}
	for _, f := range m.Funcs {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = fmt.Sprintf("%%r%d:%s", i, p)
		}
		fmt.Fprintf(&sb, "func @%s(%s) %s {\n", f.Name, strings.Join(params, ", "), f.Ret)
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "bb%d: ; %s\n", b.Index, b.Name)
			for _, in := range b.Instrs {
				fmt.Fprintf(&sb, "  [%4d] %s\n", in.ID, in.String())
			}
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}
