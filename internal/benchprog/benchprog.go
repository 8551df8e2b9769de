// Package benchprog provides the 11 HPC benchmarks of the paper (Table I)
// re-implemented in MiniC at laptop-scale problem sizes, together with
// their input spaces (inputgen specs), reference inputs, and the binders
// that turn an abstract input vector into concrete program arguments and
// array data.
//
// Dataset-like inputs (grids, graphs, matrices, point sets) are derived
// from a seed parameter by deterministic generators, mirroring the
// dataset-randomizing scripts shipped with the original suites (§III-A2).
package benchprog

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/passes"
)

// Benchmark is one program under study.
type Benchmark struct {
	Name        string
	Suite       string
	Description string
	Source      string         // MiniC source
	Spec        *inputgen.Spec // input parameter space
	Reference   inputgen.Input // the suite's reference input
	Bind        func(in inputgen.Input) interp.Binding
	// MaxGoldenInstrs is the dynamic-instruction budget an input must stay
	// under to be admissible (the paper's 40-billion cap, scaled down).
	MaxGoldenInstrs int64

	once sync.Once
	mod  *ir.Module
	err  error
}

// Module returns the compiled, optimized IR module (cached).
func (b *Benchmark) Module() (*ir.Module, error) {
	b.once.Do(func() {
		m, err := minicc.Compile(b.Name+".mc", b.Source)
		if err != nil {
			b.err = fmt.Errorf("benchprog %s: %w", b.Name, err)
			return
		}
		if err := passes.Optimize(m); err != nil {
			b.err = fmt.Errorf("benchprog %s: %w", b.Name, err)
			return
		}
		b.mod = m
	})
	return b.mod, b.err
}

// MustModule is Module for known-good embedded benchmarks.
func (b *Benchmark) MustModule() *ir.Module {
	m, err := b.Module()
	if err != nil {
		panic(err)
	}
	return m
}

// ExecConfig returns the interpreter bounds for golden runs of this
// benchmark.
func (b *Benchmark) ExecConfig() interp.Config {
	return interp.Config{MaxDynInstrs: b.MaxGoldenInstrs}
}

// rng is a splitmix64 generator: deterministic dataset derivation from an
// input's seed parameter.
type rng struct{ state uint64 }

func newRng(seed int64) *rng { return &rng{state: uint64(seed)*2685821657736338717 + 1} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a uniform float in [0,1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform integer in [0,n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// norm returns an approximately standard-normal variate (Irwin-Hall sum
// of 12 uniforms), deterministic and branch-free.
func (r *rng) norm() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.f64()
	}
	return s - 6
}

// floats converts a float slice to raw output/global words.
func floats(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// ints converts an int slice to raw words.
func ints(xs []int64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func zeros(n int64) []uint64 { return make([]uint64, n) }

// fbits packs a float argument.
func fbits(x float64) uint64 { return math.Float64bits(x) }

// All returns a copy of the benchmark registry: the paper's 11 programs
// (Table I) plus the multi-threaded FFT used in §VIII-B. Callers may
// reslice or append to it without touching the registry.
func All() []*Benchmark { return slices.Clone(registry) }

// Eleven returns a copy of the 11 single-threaded benchmarks of Table I.
func Eleven() []*Benchmark { return slices.Clone(registry[:11]) }

// ByName resolves a benchmark by name.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

var registry = []*Benchmark{
	pathfinderBench(),
	knnBench(),
	bfsBench(),
	backpropBench(),
	needleBench(),
	kmeansBench(),
	luBench(),
	particlefilterBench(),
	hpccgBench(),
	xsbenchBench(),
	fftBench(),
	fftMTBench(),
}

func pathfinderBench() *Benchmark {
	return &Benchmark{
		Name:        "pathfinder",
		Suite:       "Rodinia",
		Description: "Use dynamic programming to find a path in grid",
		Source:      srcPathfinder,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("rows", 8, 32),
			inputgen.IntParam("cols", 16, 48),
			inputgen.IntParam("maxw", 5, 20),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{16, 32, 10, 12345}, F: make([]float64, 4)},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			rows, cols, maxw, seed := in.I[0], in.I[1], in.I[2], in.I[3]
			r := newRng(seed)
			wall := make([]int64, rows*cols)
			for i := range wall {
				wall[i] = 1 + r.intn(maxw)
			}
			return interp.Binding{
				Args:    []uint64{uint64(rows), uint64(cols)},
				Globals: map[string][]uint64{"wall": ints(wall)},
			}
		},
	}
}

func knnBench() *Benchmark {
	return &Benchmark{
		Name:        "knn",
		Suite:       "Rodinia",
		Description: "Find the k-nearest neighbours from an unstructured data set",
		Source:      srcKNN,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("n", 64, 256),
			inputgen.IntParam("k", 1, 16),
			inputgen.FloatParam("qx", -100, 100),
			inputgen.FloatParam("qy", -100, 100),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{128, 8, 0, 0, 12345}, F: []float64{0, 0, 10, -20, 0}},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			n, k, seed := in.I[0], in.I[1], in.I[4]
			qx, qy := in.F[2], in.F[3]
			r := newRng(seed)
			px := make([]float64, n)
			py := make([]float64, n)
			for i := range px {
				px[i] = r.f64()*200 - 100
				py[i] = r.f64()*200 - 100
			}
			return interp.Binding{
				Args:    []uint64{uint64(n), uint64(k), fbits(qx), fbits(qy)},
				Globals: map[string][]uint64{"px": floats(px), "py": floats(py)},
			}
		},
	}
}

// GraphCSR is a directed graph in compressed-sparse-row form; exported so
// the real-world case study (datasets package) can bind external graphs
// into the BFS benchmark.
type GraphCSR struct {
	Off   []int64 // length n+1
	Edges []int64
}

// BindBFS builds a BFS binding from an explicit graph and source node.
func BindBFS(g GraphCSR, src int64) interp.Binding {
	n := int64(len(g.Off) - 1)
	return interp.Binding{
		Args: []uint64{uint64(n), uint64(src)},
		Globals: map[string][]uint64{
			"off":   ints(g.Off),
			"edges": ints(g.Edges),
			"dst":   zeros(n),
			"queue": zeros(n),
		},
	}
}

// RandomGraphSeeded derives a uniform random directed graph from a seed
// (the generator used by the bfs benchmark's binder), for callers outside
// this package.
func RandomGraphSeeded(n, deg, seed int64) GraphCSR {
	return RandomGraph(n, deg, newRng(seed))
}

// RandomGraph derives a random directed graph: each node gets deg edges to
// uniform random targets.
func RandomGraph(n, deg int64, r *rng) GraphCSR {
	off := make([]int64, n+1)
	edges := make([]int64, 0, n*deg)
	for u := int64(0); u < n; u++ {
		off[u] = int64(len(edges))
		for d := int64(0); d < deg; d++ {
			edges = append(edges, r.intn(n))
		}
	}
	off[n] = int64(len(edges))
	return GraphCSR{Off: off, Edges: edges}
}

func bfsBench() *Benchmark {
	return &Benchmark{
		Name:        "bfs",
		Suite:       "Rodinia",
		Description: "Breadth-first search all connected components in a graph",
		Source:      srcBFS,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("n", 64, 256),
			inputgen.IntParam("deg", 2, 8),
			inputgen.IntParam("srcpct", 0, 99),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{128, 4, 0, 12345}, F: make([]float64, 4)},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			n, deg, srcpct, seed := in.I[0], in.I[1], in.I[2], in.I[3]
			g := RandomGraph(n, deg, newRng(seed))
			return BindBFS(g, n*srcpct/100)
		},
	}
}

func backpropBench() *Benchmark {
	return &Benchmark{
		Name:        "backprop",
		Suite:       "Rodinia",
		Description: "Trains the weights of connected nodes on a layered neural network",
		Source:      srcBackprop,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("ni", 8, 24),
			inputgen.IntParam("nh", 4, 16),
			inputgen.FloatParam("target", 0, 1),
			inputgen.FloatParam("eta", 0.05, 0.5),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{16, 8, 0, 0, 12345}, F: []float64{0, 0, 0.8, 0.3, 0}},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			ni, nh, seed := in.I[0], in.I[1], in.I[4]
			target, eta := in.F[2], in.F[3]
			r := newRng(seed)
			input := make([]float64, ni)
			for i := range input {
				input[i] = r.f64()
			}
			w1 := make([]float64, ni*nh)
			for i := range w1 {
				w1[i] = r.f64()*2 - 1
			}
			w2 := make([]float64, nh)
			for i := range w2 {
				w2[i] = r.f64()*2 - 1
			}
			return interp.Binding{
				Args: []uint64{uint64(ni), uint64(nh), fbits(target), fbits(eta)},
				Globals: map[string][]uint64{
					"input": floats(input), "w1": floats(w1), "w2": floats(w2),
				},
			}
		},
	}
}

func needleBench() *Benchmark {
	return &Benchmark{
		Name:        "needle",
		Suite:       "Rodinia",
		Description: "A nonlinear global optimization method for DNA sequence alignments",
		Source:      srcNeedle,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("n", 16, 48),
			inputgen.IntParam("penalty", 1, 10),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{32, 4, 12345}, F: make([]float64, 3)},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			n, penalty, seed := in.I[0], in.I[1], in.I[2]
			r := newRng(seed)
			seq1 := make([]int64, n)
			seq2 := make([]int64, n)
			for i := range seq1 {
				seq1[i] = r.intn(4)
				seq2[i] = r.intn(4)
			}
			return interp.Binding{
				Args: []uint64{uint64(n), uint64(penalty)},
				Globals: map[string][]uint64{
					"seq1": ints(seq1), "seq2": ints(seq2),
					"mat": zeros((n + 1) * (n + 1)),
				},
			}
		},
	}
}

// ClusterPoints derives a Gaussian-mixture point set: k centers in
// [0,100]^2 with per-cluster spread. Exported for the case-study datasets.
func ClusterPoints(n, k int64, spread float64, r *rng) (xs, ys []float64) {
	cx := make([]float64, k)
	cy := make([]float64, k)
	for j := range cx {
		cx[j] = r.f64() * 100
		cy[j] = r.f64() * 100
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := int64(0); i < n; i++ {
		j := r.intn(k)
		xs[i] = cx[j] + r.norm()*spread
		ys[i] = cy[j] + r.norm()*spread
	}
	return xs, ys
}

// BindKmeans builds a Kmeans binding from explicit points.
func BindKmeans(xs, ys []float64, k, iters int64) interp.Binding {
	n := int64(len(xs))
	return interp.Binding{
		Args: []uint64{uint64(n), uint64(k), uint64(iters)},
		Globals: map[string][]uint64{
			"fx": floats(xs), "fy": floats(ys), "assign": zeros(n),
		},
	}
}

func kmeansBench() *Benchmark {
	return &Benchmark{
		Name:        "kmeans",
		Suite:       "Rodinia",
		Description: "A clustering algorithm used extensively in data-mining",
		Source:      srcKmeans,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("n", 64, 192),
			inputgen.IntParam("k", 2, 8),
			inputgen.IntParam("iters", 3, 8),
			inputgen.FloatParam("spread", 1, 20),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{96, 4, 5, 0, 12345}, F: []float64{0, 0, 0, 6, 0}},
		MaxGoldenInstrs: 3_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			n, k, iters, seed := in.I[0], in.I[1], in.I[2], in.I[4]
			xs, ys := ClusterPoints(n, k, in.F[3], newRng(seed))
			return BindKmeans(xs, ys, k, iters)
		},
	}
}

func luBench() *Benchmark {
	return &Benchmark{
		Name:        "lu",
		Suite:       "Rodinia",
		Description: "An algorithm calculating the solutions of a set of linear equations",
		Source:      srcLU,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("n", 8, 20),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{12, 12345}, F: make([]float64, 2)},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			n, seed := in.I[0], in.I[1]
			r := newRng(seed)
			a := make([]float64, n*n)
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					a[i*n+j] = r.f64()
					if i == j {
						a[i*n+j] += float64(n) // diagonal dominance
					}
				}
			}
			return interp.Binding{
				Args:    []uint64{uint64(n)},
				Globals: map[string][]uint64{"a": floats(a)},
			}
		},
	}
}

func particlefilterBench() *Benchmark {
	return &Benchmark{
		Name:        "particlefilter",
		Suite:       "Rodinia",
		Description: "Statistical estimator of a target location given noisy measurements",
		Source:      srcParticlefilter,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("n", 32, 128),
			inputgen.IntParam("t", 4, 10),
			inputgen.FloatParam("x0", -10, 10),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{64, 6, 0, 12345}, F: []float64{0, 0, 2, 0}},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			n, tFrames, seed := in.I[0], in.I[1], in.I[3]
			x0 := in.F[2]
			r := newRng(seed)
			noise := make([]float64, tFrames*n)
			for i := range noise {
				noise[i] = r.norm() * 0.2
			}
			meas := make([]float64, tFrames)
			truth := x0
			for f := range meas {
				truth += 1.0 + r.norm()*0.1
				meas[f] = truth + r.norm()*0.3
			}
			return interp.Binding{
				Args: []uint64{uint64(n), uint64(tFrames), fbits(x0)},
				Globals: map[string][]uint64{
					"noise": floats(noise), "meas": floats(meas),
					"xs": zeros(n), "ws": zeros(n), "xs2": zeros(n),
				},
			}
		},
	}
}

func hpccgBench() *Benchmark {
	return &Benchmark{
		Name:        "hpccg",
		Suite:       "Mantevo",
		Description: "A simple conjugate gradient benchmark on a 3D chimney domain",
		Source:      srcHPCCG,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("nx", 3, 6),
			inputgen.IntParam("ny", 3, 6),
			inputgen.IntParam("nz", 3, 6),
			inputgen.IntParam("maxiter", 4, 12),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{4, 4, 4, 8, 12345}, F: make([]float64, 5)},
		MaxGoldenInstrs: 3_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			nx, ny, nz, maxiter, seed := in.I[0], in.I[1], in.I[2], in.I[3], in.I[4]
			n := nx * ny * nz
			r := newRng(seed)
			b := make([]float64, n)
			for i := range b {
				b[i] = r.f64()
			}
			return interp.Binding{
				Args: []uint64{uint64(nx), uint64(ny), uint64(nz), uint64(maxiter)},
				Globals: map[string][]uint64{
					"b": floats(b), "x": zeros(n), "r": zeros(n),
					"p": zeros(n), "ap": zeros(n),
				},
			}
		},
	}
}

func xsbenchBench() *Benchmark {
	return &Benchmark{
		Name:        "xsbench",
		Suite:       "CESAR",
		Description: "Key computational kernel of the Monte Carlo neutronics application",
		Source:      srcXsbench,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.IntParam("lookups", 100, 400),
			inputgen.IntParam("nuclides", 8, 24),
			inputgen.IntParam("gridpoints", 32, 128),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{200, 12, 64, 12345}, F: make([]float64, 4)},
		MaxGoldenInstrs: 3_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			lookups, nuc, gp, seed := in.I[0], in.I[1], in.I[2], in.I[3]
			r := newRng(seed)
			egrid := make([]float64, gp)
			for i := range egrid {
				egrid[i] = r.f64()
			}
			sort.Float64s(egrid)
			egrid[0] = 0
			egrid[gp-1] = 1
			xsdata := make([]float64, nuc*gp)
			for i := range xsdata {
				xsdata[i] = r.f64() * 10
			}
			le := make([]float64, lookups)
			for i := range le {
				le[i] = r.f64() * 0.999
			}
			return interp.Binding{
				Args: []uint64{uint64(lookups), uint64(nuc), uint64(gp)},
				Globals: map[string][]uint64{
					"egrid": floats(egrid), "xsdata": floats(xsdata),
					"lookups": floats(le),
				},
			}
		},
	}
}

// fftArrays derives the FFT input signal.
func fftArrays(m, seed int64) (re, im []float64) {
	n := int64(1) << uint(m)
	r := newRng(seed)
	re = make([]float64, n)
	im = make([]float64, n)
	for i := range re {
		re[i] = r.f64()*2 - 1
		im[i] = r.f64()*2 - 1
	}
	return re, im
}

func fftBench() *Benchmark {
	return &Benchmark{
		Name:        "fft",
		Suite:       "SPLASH-2",
		Description: "1D fast Fourier transform using the radix-2 method",
		Source:      srcFFT,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.ChoiceParam("m", 5, 6, 7, 8),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{6, 12345}, F: make([]float64, 2)},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			m, seed := in.I[0], in.I[1]
			re, im := fftArrays(m, seed)
			return interp.Binding{
				Args:    []uint64{uint64(m)},
				Globals: map[string][]uint64{"re": floats(re), "im": floats(im)},
			}
		},
	}
}

func fftMTBench() *Benchmark {
	return &Benchmark{
		Name:        "fft-mt",
		Suite:       "SPLASH-2",
		Description: "Multi-threaded radix-2 FFT (paper §VIII-B)",
		Source:      srcFFTMT,
		Spec: &inputgen.Spec{Params: []inputgen.Param{
			inputgen.ChoiceParam("m", 5, 6, 7),
			inputgen.ChoiceParam("threads", 1, 2, 4),
			inputgen.SeedParam("seed"),
		}},
		Reference:       inputgen.Input{I: []int64{6, 2, 12345}, F: make([]float64, 3)},
		MaxGoldenInstrs: 2_000_000,
		Bind: func(in inputgen.Input) interp.Binding {
			m, nt, seed := in.I[0], in.I[1], in.I[2]
			re, im := fftArrays(m, seed)
			return interp.Binding{
				Args:    []uint64{uint64(m), uint64(nt)},
				Globals: map[string][]uint64{"re": floats(re), "im": floats(im)},
			}
		},
	}
}
