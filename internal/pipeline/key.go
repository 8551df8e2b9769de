// Package pipeline turns the paper's evaluation into an explicit task
// graph: typed, pure task nodes (compile, measure, search, protect,
// campaign, eval) keyed by a canonical content hash, executed by a
// single-flight scheduler on a bounded worker pool, with results held in
// a two-tier artifact store (an in-memory LRU plus an opt-in on-disk
// store under results/cache/ that makes experiment drivers resumable
// across process exits).
//
// Every task is a deterministic function of its key, so any execution
// order, worker count, and cache state (cold, warm, or disabled) yields
// bit-identical artifacts. The scheduler and stores are therefore purely
// observational: they decide only *whether* work re-runs, never what it
// computes.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/fault"
	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Key is the canonical content identity of a task's output: a SHA-256
// over the task kind and every input that can influence the result.
// Observational knobs (worker counts, caches, metrics) never participate.
type Key [sha256.Size]byte

// Hex returns the full lowercase hex encoding (artifact file names).
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Short returns an 16-hex-digit prefix for logs and reports.
func (k Key) Short() string { return hex.EncodeToString(k[:8]) }

// Hasher accumulates key components. Every component is written with a
// type tag and, for variable-length data, a length prefix, so distinct
// component sequences can never collide by concatenation.
type Hasher struct{ h hash.Hash }

// NewHasher starts a key for one task kind.
func NewHasher(kind string) *Hasher {
	h := &Hasher{h: sha256.New()}
	return h.Str(kind)
}

func (h *Hasher) word(tag byte, v uint64) *Hasher {
	var buf [9]byte
	buf[0] = tag
	binary.LittleEndian.PutUint64(buf[1:], v)
	h.h.Write(buf[:])
	return h
}

// Str appends a length-prefixed string component.
func (h *Hasher) Str(s string) *Hasher {
	h.word('s', uint64(len(s)))
	h.h.Write([]byte(s))
	return h
}

// I64 appends an integer component.
func (h *Hasher) I64(v int64) *Hasher { return h.word('i', uint64(v)) }

// F64 appends a float component (by IEEE-754 bits).
func (h *Hasher) F64(v float64) *Hasher { return h.word('f', math.Float64bits(v)) }

// Ints appends a length-prefixed []int component.
func (h *Hasher) Ints(vs []int) *Hasher {
	h.word('I', uint64(len(vs)))
	for _, v := range vs {
		h.word('i', uint64(v))
	}
	return h
}

// Strs appends a length-prefixed []string component.
func (h *Hasher) Strs(vs []string) *Hasher {
	h.word('S', uint64(len(vs)))
	for _, v := range vs {
		h.Str(v)
	}
	return h
}

// F64s appends a length-prefixed []float64 component.
func (h *Hasher) F64s(vs []float64) *Hasher {
	h.word('F', uint64(len(vs)))
	for _, v := range vs {
		h.word('f', math.Float64bits(v))
	}
	return h
}

// Key appends another key as a component (task composition).
func (h *Hasher) Key(k Key) *Hasher {
	h.word('k', uint64(len(k)))
	h.h.Write(k[:])
	return h
}

// Sum finalizes the key.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

type moduleHashKey struct{}

// ModuleHash returns the content hash of a module: a SHA-256 over its
// canonical textual rendering. The hash is memoized on the module's
// current snapshot, so repeated keying of the same module is cheap.
func ModuleHash(m *ir.Module) Key {
	return ir.Derived(m, moduleHashKey{}, func(m *ir.Module) Key {
		return NewHasher("module").Str(m.String()).Sum()
	})
}

// BindingHash returns the content hash of an input binding (argument
// words plus sorted global arrays), reusing the campaign cache's
// canonical binding identity.
func BindingHash(bind interp.Binding) Key {
	b := fault.BindingKey(bind)
	return NewHasher("binding").Str(string(b[:])).Sum()
}

// ExecHash returns the content hash of an execution config with defaults
// normalized, so a zero config and an explicitly-defaulted one key
// identically. The engine choice is deliberately excluded: the two
// engines (legacy, compiled) are pinned bit-identical by the
// legacy-vs-compiled differential test suite, so artifacts are shared
// across engines. Compiled artifacts live on the module they compile
// (internal/interp), never in the store.
func ExecHash(cfg interp.Config) Key {
	h := NewHasher("exec")
	norm := func(v int64, def int64) int64 {
		if v == 0 {
			return def
		}
		return v
	}
	h.I64(norm(cfg.MaxDynInstrs, interp.DefaultMaxDynInstrs))
	h.I64(norm(int64(cfg.StackWords), interp.DefaultStackWords))
	h.I64(norm(int64(cfg.MaxOutputWords), interp.DefaultMaxOutputWords))
	h.I64(norm(int64(cfg.MaxCallDepth), interp.DefaultMaxCallDepth))
	h.I64(norm(int64(cfg.Quantum), interp.DefaultQuantum))
	h.I64(norm(int64(cfg.MaxThreads), interp.DefaultMaxThreads))
	return h.Sum()
}

// SpecHash returns the content hash of an input space: every parameter's
// name, kind, and domain in order.
func SpecHash(spec *inputgen.Spec) Key {
	h := NewHasher("spec")
	h.I64(int64(len(spec.Params)))
	for _, p := range spec.Params {
		h.Str(p.Name).I64(int64(p.Kind))
		h.I64(p.Min).I64(p.Max).F64(p.FMin).F64(p.FMax)
		h.I64(int64(len(p.Choices)))
		for _, c := range p.Choices {
			h.I64(c)
		}
	}
	return h.Sum()
}

// InputHash returns the content hash of one concrete input.
func InputHash(in inputgen.Input) Key {
	h := NewHasher("input")
	h.I64(int64(len(in.I)))
	for _, v := range in.I {
		h.I64(v)
	}
	return h.F64s(in.F).Sum()
}
