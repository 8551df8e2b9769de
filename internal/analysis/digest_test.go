package analysis_test

// Digest golden for the analysis results. Every benchmark module, plain
// and fully duplicated, is reduced to one hash per result family; the
// file pins them so a change to the dataflow engine or any analysis
// that alters a single fact, verdict or boundary hash fails loudly. The
// ir family hashes the optimized IR text itself, which also pins what
// the passes emit (a reordered phi operand list leaves every
// per-register fact unchanged).
// Regenerate (only for an intended analysis change) with:
//
//	go test ./internal/analysis -run TestFactsDigest -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/sid"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// digestModule writes one line per result family of m: per-function
// value ranges and known bits, the range-masked bits, the verdict and
// proof of every (instruction, bit) site, every section-boundary hash,
// and the module's IR text.
func digestModule(w *bytes.Buffer, name string, m *ir.Module) {
	fa := analysis.FactsFor(m)
	tri := analysis.TriageFor(m)
	word := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	line := func(family string, fill func(h hash.Hash)) {
		h := sha256.New()
		fill(h)
		fmt.Fprintf(w, "%s %s %x\n", name, family, h.Sum(nil)[:12])
	}
	line("ranges", func(h hash.Hash) {
		for fi, f := range m.Funcs {
			fmt.Fprintf(h, "func %s\n", f.Name)
			if fa.Ranges == nil || fa.Ranges[fi] == nil {
				continue
			}
			for _, iv := range fa.Ranges[fi].R {
				word(h, uint64(iv.Lo))
				word(h, uint64(iv.Hi))
			}
		}
	})
	line("known", func(h hash.Hash) {
		for fi, f := range m.Funcs {
			fmt.Fprintf(h, "func %s\n", f.Name)
			if kb := fa.Known[fi]; kb != nil {
				for r := range kb.Zero {
					word(h, kb.Zero[r])
					word(h, kb.One[r])
				}
			}
		}
	})
	line("rangemask", func(h hash.Hash) {
		for _, v := range fa.RangeMasked {
			word(h, v)
		}
	})
	line("sites", func(h hash.Hash) {
		for _, in := range m.Instrs {
			if !in.IsInjectable() {
				continue
			}
			for b := uint(0); b < uint(in.Type.Bits()); b++ {
				v, p := tri.Site(in.ID, b)
				h.Write([]byte{byte(v), byte(p)})
			}
		}
	})
	line("boundary", func(h hash.Hash) {
		bs := analysis.BuildBoundaries(m)
		for si := range bs.Secs {
			sum := bs.HashOf(si)
			h.Write(sum[:])
		}
	})
	line("ir", func(h hash.Hash) {
		h.Write([]byte(m.String()))
	})
}

// TestFactsDigest pins every fact, triage verdict and section-boundary
// hash of each benchmark, plain and under sid.FullDuplication, against
// testdata/facts.digest.
func TestFactsDigest(t *testing.T) {
	var got bytes.Buffer
	for _, b := range benchprog.All() {
		m := b.MustModule()
		digestModule(&got, b.Name, m)
		digestModule(&got, b.Name+"/dup", sid.FullDuplication(m))
	}
	path := filepath.Join("testdata", "facts.digest")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the analysis produced %d (regenerate with -update if intended)",
			path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s:%d: got %q, want %q (regenerate with -update if intended)",
				path, i+1, gotLines[i], wantLines[i])
		}
	}
}
