package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/interp"
)

// testTask is a minimal in-memory task for scheduler tests.
type testTask struct {
	name string
	deps []Task
	runs *int32
	fn   func(rt *Runtime) (any, error)
}

func (t *testTask) Kind() string { return "test" }
func (t *testTask) Key() Key     { return NewHasher("test").Str(t.name).Sum() }
func (t *testTask) Deps() []Task { return t.deps }
func (t *testTask) Run(rt *Runtime) (any, error) {
	if t.runs != nil {
		atomic.AddInt32(t.runs, 1)
	}
	if t.fn != nil {
		return t.fn(rt)
	}
	return t.name, nil
}

// persistTask exercises the disk tier.
type persistTask struct {
	name string
	val  string
	runs *int32
}

func (t *persistTask) Kind() string { return "ptest" }
func (t *persistTask) Key() Key     { return NewHasher("ptest").Str(t.name).Sum() }
func (t *persistTask) Deps() []Task { return nil }
func (t *persistTask) Run(rt *Runtime) (any, error) {
	if t.runs != nil {
		atomic.AddInt32(t.runs, 1)
	}
	return t.val, nil
}
func (t *persistTask) Encode(v any) ([]byte, error) { return encodeArtifact(t.Kind(), v.(string)) }
func (t *persistTask) Decode(data []byte) (any, error) {
	var s string
	if err := decodeArtifact(t.Kind(), data, &s); err != nil {
		return nil, err
	}
	return s, nil
}

func TestSingleFlightDedup(t *testing.T) {
	p := NewMem(4)
	var runs int32
	task := &testTask{name: "a", runs: &runs}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Run(task)
			if err != nil || v.(string) != "a" {
				t.Errorf("Run = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if runs != 1 {
		t.Fatalf("task ran %d times, want 1", runs)
	}
	// A distinct task value with the same key is served from the mem tier.
	if _, err := p.Run(&testTask{name: "a", runs: &runs}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("task re-ran on equal key: %d runs", runs)
	}
	if s := p.Stats(); s.MemHits == 0 || s.Runs != 1 {
		t.Fatalf("stats = %+v, want >=1 mem hit and exactly 1 run", s)
	}
}

func TestDependencyResolution(t *testing.T) {
	p := NewMem(2)
	a := &testTask{name: "a"}
	b := &testTask{name: "b"}
	c := &testTask{name: "c", deps: []Task{a, b}, fn: func(rt *Runtime) (any, error) {
		return rt.Out(a).(string) + rt.Out(b).(string), nil
	}}
	v, err := p.Run(c)
	if err != nil || v.(string) != "ab" {
		t.Fatalf("Run = %v, %v, want ab", v, err)
	}
}

func TestDependencyErrorPropagates(t *testing.T) {
	p := NewMem(2)
	boom := errors.New("boom")
	bad := &testTask{name: "bad", fn: func(rt *Runtime) (any, error) { return nil, boom }}
	root := &testTask{name: "root", deps: []Task{bad}}
	if _, err := p.Run(root); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestAwaitNestedFanOutAtOneWorker(t *testing.T) {
	// A composite task that awaits subtasks which themselves await more
	// subtasks must not deadlock the single worker slot.
	p := NewMem(1)
	leafs := 0
	root := &testTask{name: "root", fn: func(rt *Runtime) (any, error) {
		var mids []Task
		for i := 0; i < 3; i++ {
			mid := i
			mids = append(mids, &testTask{name: fmt.Sprintf("mid%d", mid), fn: func(rt *Runtime) (any, error) {
				outs, err := rt.Await(&testTask{name: fmt.Sprintf("leaf%d", mid)})
				if err != nil {
					return nil, err
				}
				return outs[0], nil
			}})
		}
		outs, err := rt.Await(mids...)
		if err != nil {
			return nil, err
		}
		leafs = len(outs)
		return "done", nil
	}}
	if v, err := p.Run(root); err != nil || v.(string) != "done" {
		t.Fatalf("Run = %v, %v", v, err)
	}
	if leafs != 3 {
		t.Fatalf("awaited %d mids, want 3", leafs)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var runs int32
	task := &persistTask{name: "x", val: "payload", runs: &runs}

	p1, err := New(Options{Workers: 2, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := p1.Run(task); err != nil || v.(string) != "payload" {
		t.Fatalf("cold Run = %v, %v", v, err)
	}
	if s := p1.Stats(); s.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want 1 disk write", s)
	}

	// A fresh pipeline on the same directory serves the artifact from disk.
	p2, err := New(Options{Workers: 2, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := p2.Run(task); err != nil || v.(string) != "payload" {
		t.Fatalf("warm Run = %v, %v", v, err)
	}
	if runs != 1 {
		t.Fatalf("task ran %d times across pipelines, want 1", runs)
	}
	nodes := p2.Nodes()
	if len(nodes) != 1 || nodes[0].Source != SourceDisk {
		t.Fatalf("warm nodes = %+v, want one disk-sourced node", nodes)
	}
}

func TestDiskVersionMismatchDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	var runs int32
	task := &persistTask{name: "y", val: "v", runs: &runs}

	// Hand-plant an artifact from a different store version at this key.
	ds, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale, _ := json.Marshal(envelope{V: StoreVersion + 999, Kind: task.Kind(), Data: []byte(`"old"`)})
	if err := ds.Put(task.Kind(), task.Key(), stale); err != nil {
		t.Fatal(err)
	}

	p, err := New(Options{Workers: 1, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := p.Run(task); err != nil || v.(string) != "v" {
		t.Fatalf("Run = %v, %v", v, err)
	}
	if runs != 1 {
		t.Fatalf("stale artifact was trusted (runs=%d)", runs)
	}
	if s := p.Stats(); s.DiskErrors == 0 {
		t.Fatalf("stats = %+v, want a recorded disk error", s)
	}
	// The recompute overwrote the stale artifact.
	data, ok := ds.Get(task.Kind(), task.Key())
	if !ok {
		t.Fatal("artifact missing after recompute")
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.V != StoreVersion {
		t.Fatalf("artifact version = %d, %v; want %d", env.V, err, StoreVersion)
	}
}

func TestMemLRUEviction(t *testing.T) {
	lru := newMemLRU(2)
	k := func(s string) Key { return NewHasher("k").Str(s).Sum() }
	lru.add(k("a"), 1)
	lru.add(k("b"), 2)
	lru.add(k("c"), 3) // evicts a
	if _, ok := lru.get(k("a")); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := lru.get(k("b")); !ok || v.(int) != 2 {
		t.Fatalf("get(b) = %v, %v", v, ok)
	}
	if lru.len() != 2 {
		t.Fatalf("len = %d, want 2", lru.len())
	}
}

func TestSummarize(t *testing.T) {
	nodes := []NodeMetric{
		{Kind: "measure", Source: SourceRun},
		{Kind: "campaign", Source: SourceRun},
		{Kind: "campaign", Source: SourceDisk},
		{Kind: "campaign", Source: SourceDisk},
	}
	s := Summarize(nodes)
	if s["campaign"][SourceDisk] != 2 || s["campaign"][SourceRun] != 1 || s["measure"][SourceRun] != 1 {
		t.Fatalf("Summarize = %v", s)
	}
	if Summarize(nil) != nil {
		t.Fatal("Summarize(nil) should be nil")
	}
}

func TestHasherDistinguishesComponents(t *testing.T) {
	// Length prefixes prevent concatenation collisions.
	a := NewHasher("k").Str("ab").Str("c").Sum()
	b := NewHasher("k").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("string components collide by concatenation")
	}
	if NewHasher("k").Ints([]int{1, 2}).Sum() == NewHasher("k").Ints([]int{1}).I64(2).Sum() {
		t.Fatal("slice and scalar components collide")
	}
}

func TestWriteReportCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "r.json")
	store := StoreStats{Runs: 1}
	rep := &Report{Schema: ReportSchema, Tool: "t", Store: &store}
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Store == nil || back.Store.Runs != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
}

// TestExecHashEngineInvariant pins the cache-sharing contract: the two
// engines are bit-identical (legacy-vs-compiled differential suite), so
// ExecHash must not vary with cfg.Engine — campaign artifacts computed
// under one engine must be hits under the other. Semantically meaningful
// limits must still change the key.
func TestExecHashEngineInvariant(t *testing.T) {
	base := interp.Config{}
	for _, eng := range []interp.Engine{interp.EngineLegacy, interp.EngineCompiled} {
		cfg := base
		cfg.Engine = eng
		if ExecHash(cfg) != ExecHash(base) {
			t.Fatalf("ExecHash varies with engine %v; artifacts would not be shared", eng)
		}
	}
	limited := base
	limited.MaxDynInstrs = 12345
	if ExecHash(limited) == ExecHash(base) {
		t.Fatal("ExecHash ignores MaxDynInstrs")
	}
}
