package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Task is one node of the evaluation graph: a pure function of its Key.
// Two tasks with equal keys must compute bit-identical outputs, so the
// scheduler is free to dedup them (single flight), reorder them, and
// serve either from any store tier.
type Task interface {
	// Kind names the node type ("measure", "campaign", ...). It prefixes
	// the key and names the artifact subdirectory.
	Kind() string
	// Key is the canonical content hash of everything that can influence
	// the output. Observational knobs (workers, caches, metrics) are
	// excluded by construction.
	Key() Key
	// Deps lists statically-known prerequisite tasks. They are resolved
	// before Run and their outputs are available via Runtime.Out.
	// Dynamically discovered work is scheduled from inside Run via
	// Runtime.Await.
	Deps() []Task
	// Run computes the output. It must derive everything from the task's
	// own fields and dep outputs.
	Run(rt *Runtime) (any, error)
}

// Persistable marks tasks whose outputs survive in the disk tier. Encode
// and Decode round-trip the output through the versioned JSON envelope.
type Persistable interface {
	Task
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Rehydrator lets a task restore runtime-only state (e.g. attach a golden
// execution to a disk-loaded measurement) after Decode. Rehydrate runs
// under the single flight for the key, so it executes at most once per
// resident artifact.
type Rehydrator interface {
	Rehydrate(rt *Runtime, v any) (any, error)
}

// NodeMetric records how one task node was satisfied. Wall is inclusive:
// for composite nodes (eval) it covers time spent awaiting subtasks.
type NodeMetric struct {
	Kind   string        `json:"kind"`
	Key    string        `json:"key"`    // Short() prefix
	Source string        `json:"source"` // "run", "disk", or "mem"
	Wall   time.Duration `json:"wall_ns"`
}

// Node sources.
const (
	SourceRun  = "run"
	SourceDisk = "disk"
	SourceMem  = "mem"
)

// Options configures a Pipeline.
type Options struct {
	// Workers bounds concurrently *running* tasks (0 = GOMAXPROCS).
	// Tasks waiting on dependencies hold no worker slot.
	Workers int
	// DiskDir, if non-empty, enables the persistent artifact tier rooted
	// at this directory.
	DiskDir string
}

// Pipeline executes task graphs with single-flight dedup over a two-tier
// artifact store. Safe for concurrent use.
type Pipeline struct {
	sem chan struct{}

	mu       sync.Mutex
	inflight map[Key]*flight
	mem      *memLRU
	disk     *DiskStore
	nodes    []NodeMetric
	stats    StoreStats
	obs      *obs.Obs
	obsRoot  *obs.Span
}

// flight is one in-progress computation; completed values move to the
// memory tier.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New builds a pipeline. An error is only possible when Options.DiskDir
// is set and cannot be created.
func New(opts Options) (*Pipeline, error) {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		sem:      make(chan struct{}, w),
		inflight: make(map[Key]*flight),
		mem:      newMemLRU(memEntries),
	}
	if opts.DiskDir != "" {
		if err := p.EnableDisk(opts.DiskDir); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// NewMem builds a memory-only pipeline (never fails).
func NewMem(workers int) *Pipeline {
	p, _ := New(Options{Workers: workers})
	return p
}

// EnableDisk attaches the persistent tier rooted at dir.
func (p *Pipeline) EnableDisk(dir string) error {
	ds, err := NewDiskStore(dir)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.disk = ds
	p.mu.Unlock()
	return nil
}

// SetObs attaches an observability context. Executed task nodes open
// spans under a lazily created "pipeline" root span, and node traffic is
// counted into the registry. Like Env, obs never participates in task
// keys: enabling it cannot change any output.
func (p *Pipeline) SetObs(o *obs.Obs) {
	p.mu.Lock()
	p.obs = o
	p.obsRoot = nil
	p.mu.Unlock()
}

// taskObs opens the span for one executed node and returns the obs scoped
// to it (nil, nil when observability is off).
func (p *Pipeline) taskObs(t Task, k Key) (*obs.Obs, *obs.Span) {
	p.mu.Lock()
	o := p.obs
	if o == nil {
		p.mu.Unlock()
		return nil, nil
	}
	if p.obsRoot == nil {
		p.obsRoot = o.Start("pipeline")
	}
	root := p.obsRoot
	p.mu.Unlock()
	sp := root.Child(t.Kind())
	sp.SetAttr("key", k.Short())
	return o.At(sp), sp
}

// DiskDir returns the versioned artifact directory, or "" when the disk
// tier is disabled.
func (p *Pipeline) DiskDir() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.disk == nil {
		return ""
	}
	return p.disk.Dir()
}

// Run executes t (scheduling its whole dependency graph) and returns its
// output. Callers needing several independent roots should use RunAll so
// the roots overlap.
func (p *Pipeline) Run(t Task) (any, error) {
	f := p.start(t)
	<-f.done
	return f.val, f.err
}

// RunAll executes the given roots concurrently and returns their outputs
// in order. The first error (in argument order) is returned, but every
// root runs to completion either way.
func (p *Pipeline) RunAll(ts ...Task) ([]any, error) {
	fs := make([]*flight, len(ts))
	for i, t := range ts {
		fs[i] = p.start(t)
	}
	out := make([]any, len(ts))
	var firstErr error
	for i, f := range fs {
		<-f.done
		out[i] = f.val
		if f.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pipeline: %s %s: %w", ts[i].Kind(), ts[i].Key().Short(), f.err)
		}
	}
	return out, firstErr
}

// start returns the (possibly shared) flight computing t.
func (p *Pipeline) start(t Task) *flight {
	k := t.Key()
	p.mu.Lock()
	if v, ok := p.mem.get(k); ok {
		p.stats.MemHits++
		p.mu.Unlock()
		f := &flight{done: make(chan struct{}), val: v}
		close(f.done)
		return f
	}
	if f, ok := p.inflight[k]; ok {
		p.mu.Unlock()
		return f
	}
	f := &flight{done: make(chan struct{})}
	p.inflight[k] = f
	p.mu.Unlock()
	go p.compute(t, k, f)
	return f
}

// compute satisfies one node: disk tier, then dependency resolution, then
// execution under a worker slot, then publication to both tiers.
func (p *Pipeline) compute(t Task, k Key, f *flight) {
	// The node span opens before the disk tier so that warm reruns still
	// record the full task chain; the source attribute tells the two
	// apart. Spans are therefore inclusive of dependency waits.
	to, sp := p.taskObs(t, k)

	// Disk tier.
	if pt, ok := t.(Persistable); ok {
		if v, ok, wall := p.loadDisk(pt, k); ok {
			sp.SetAttr("source", SourceDisk)
			sp.End()
			p.finish(t, k, f, v, nil, SourceDisk, wall, false)
			return
		}
	}

	// Resolve static deps without holding a worker slot.
	deps := t.Deps()
	rt := &Runtime{p: p, deps: make(map[Key]any, len(deps)), holdsSlot: true}
	depFlights := make([]*flight, len(deps))
	for i, d := range deps {
		depFlights[i] = p.start(d)
	}
	for i, df := range depFlights {
		<-df.done
		if df.err != nil {
			sp.End()
			p.finish(t, k, f, nil, fmt.Errorf("dep %s %s: %w",
				deps[i].Kind(), deps[i].Key().Short(), df.err), SourceRun, 0, false)
			return
		}
		rt.deps[deps[i].Key()] = df.val
	}

	// Execute under a worker slot.
	sp.SetAttr("source", SourceRun)
	rt.obs = to
	p.sem <- struct{}{}
	t0 := time.Now()
	v, err := t.Run(rt)
	wall := time.Since(t0)
	<-p.sem
	sp.End()

	persisted := false
	if err == nil {
		persisted = p.storeDisk(t, k, v)
	}
	p.finish(t, k, f, v, err, SourceRun, wall, persisted)
}

// loadDisk tries the persistent tier, decoding and rehydrating on hit.
func (p *Pipeline) loadDisk(t Persistable, k Key) (any, bool, time.Duration) {
	p.mu.Lock()
	disk := p.disk
	p.mu.Unlock()
	if disk == nil {
		return nil, false, 0
	}
	data, ok := disk.Get(t.Kind(), k)
	if !ok {
		return nil, false, 0
	}
	t0 := time.Now()
	v, err := t.Decode(data)
	if err == nil {
		if rh, isRh := t.(Rehydrator); isRh {
			v, err = rh.Rehydrate(&Runtime{p: p}, v)
		}
	}
	if err != nil {
		// A corrupt or stale artifact degrades to a miss and is
		// overwritten by the recompute.
		p.mu.Lock()
		p.stats.DiskErrors++
		p.mu.Unlock()
		return nil, false, 0
	}
	return v, true, time.Since(t0)
}

// storeDisk persists an executed output (best effort).
func (p *Pipeline) storeDisk(t Task, k Key, v any) bool {
	pt, ok := t.(Persistable)
	if !ok {
		return false
	}
	p.mu.Lock()
	disk := p.disk
	p.mu.Unlock()
	if disk == nil {
		return false
	}
	data, err := pt.Encode(v)
	if err == nil {
		err = disk.Put(t.Kind(), k, data)
	}
	if err != nil {
		p.mu.Lock()
		p.stats.DiskErrors++
		p.mu.Unlock()
		return false
	}
	return true
}

// finish publishes a flight's result and records the node metric.
func (p *Pipeline) finish(t Task, k Key, f *flight, v any, err error, source string, wall time.Duration, persisted bool) {
	f.val, f.err = v, err
	p.mu.Lock()
	if err == nil {
		p.mem.add(k, v)
	}
	delete(p.inflight, k)
	p.nodes = append(p.nodes, NodeMetric{Kind: t.Kind(), Key: k.Short(), Source: source, Wall: wall})
	switch source {
	case SourceDisk:
		p.stats.DiskHits++
	case SourceRun:
		if err == nil {
			p.stats.Runs++
		}
	}
	if persisted {
		p.stats.DiskWrites++
	}
	o := p.obs
	p.mu.Unlock()
	o.Counter("pipeline.nodes." + t.Kind() + "." + source).Inc()
	o.Histogram("pipeline.wall_ns." + t.Kind()).Observe(wall.Nanoseconds())
	close(f.done)
}

// Nodes returns a copy of the node metrics recorded so far. Memory-tier
// hits are aggregated in Stats rather than recorded per node (a warm
// in-process rerun would otherwise flood the log).
func (p *Pipeline) Nodes() []NodeMetric {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]NodeMetric(nil), p.nodes...)
}

// NumNodes returns the count of recorded node metrics; use with Nodes to
// slice per-experiment deltas.
func (p *Pipeline) NumNodes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nodes)
}

// Stats returns cumulative store traffic.
func (p *Pipeline) Stats() StoreStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.MemEntries = p.mem.len()
	return s
}

// Runtime is the execution context handed to Task.Run.
type Runtime struct {
	p    *Pipeline
	deps map[Key]any
	// holdsSlot is true inside Task.Run (which executes under a worker
	// slot) and false inside Rehydrate (which does not).
	holdsSlot bool
	// obs is scoped to this task's span; engine work started inside Run
	// nests under it.
	obs *obs.Obs
}

// Out returns the output of a statically-declared dependency.
func (rt *Runtime) Out(t Task) any { return rt.deps[t.Key()] }

// Obs returns the task-scoped observability context (nil when disabled,
// which every downstream consumer treats as a no-op).
func (rt *Runtime) Obs() *obs.Obs { return rt.obs }

// Await schedules dynamically-discovered subtasks and blocks until all
// complete, returning their outputs in order. The caller's worker slot is
// released while waiting, so nested fan-out cannot deadlock the pool even
// at Workers == 1. The first error is returned after all subtasks settle.
func (rt *Runtime) Await(ts ...Task) ([]any, error) {
	fs := make([]*flight, len(ts))
	for i, t := range ts {
		fs[i] = rt.p.start(t)
	}
	// Release this task's slot while blocked; re-acquire before resuming.
	if rt.holdsSlot {
		<-rt.p.sem
		defer func() { rt.p.sem <- struct{}{} }()
	}
	out := make([]any, len(ts))
	var firstErr error
	for i, f := range fs {
		<-f.done
		out[i] = f.val
		if f.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s %s: %w", ts[i].Kind(), ts[i].Key().Short(), f.err)
		}
	}
	return out, firstErr
}
