package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// One observation per interesting value: bucket edges and their
	// neighbors. bits.Len64 semantics: bucket 0 holds v <= 0, bucket i
	// holds 2^(i-1) <= v < 2^i.
	cases := []struct {
		v  int64
		le int64 // expected bucket upper bound
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 7},
		{7, 7},
		{8, 15},
		{1 << 20, 1<<21 - 1},
		{1<<21 - 1, 1<<21 - 1},
		{math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	var wantSum int64
	for _, c := range cases {
		wantSum += c.v
	}
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	want := map[int64]int64{}
	for _, c := range cases {
		want[c.le]++
	}
	got := map[int64]int64{}
	prev := int64(-1)
	for _, b := range s.Buckets {
		if b.Le <= prev {
			t.Errorf("buckets not ascending: %d after %d", b.Le, prev)
		}
		prev = b.Le
		got[b.Le] = b.N
	}
	for le, n := range want {
		if got[le] != n {
			t.Errorf("bucket le=%d: n = %d, want %d", le, got[le], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d non-empty buckets, want %d (%v vs %v)", len(got), len(want), got, want)
	}
}

func TestBucketUpperEdges(t *testing.T) {
	cases := []struct {
		i    int
		want int64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 3}, {3, 7}, {10, 1023},
		{62, 1<<62 - 1}, {63, math.MaxInt64}, {64, math.MaxInt64},
	}
	for _, c := range cases {
		if got := BucketUpper(c.i); got != c.want {
			t.Errorf("BucketUpper(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

// TestConcurrentCounters exercises the registry and counter hot path from
// many goroutines; run with -race it proves the atomic paths are clean.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 8
		perG       = 10_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines re-look the handle up each time
			// (contending on the registry mutex), half cache it (the
			// intended hot path). Both must agree in the end.
			if g%2 == 0 {
				for i := 0; i < perG; i++ {
					reg.Counter("shared").Inc()
				}
			} else {
				c := reg.Counter("shared")
				for i := 0; i < perG; i++ {
					c.Inc()
				}
			}
			reg.Gauge("peak").SetMax(int64(g))
			reg.Histogram("dist").Observe(int64(g * 100))
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("shared = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("peak").Value(); got != goroutines-1 {
		t.Errorf("peak = %d, want %d", got, goroutines-1)
	}
	if got := reg.Histogram("dist").Snapshot().Count; got != goroutines {
		t.Errorf("dist count = %d, want %d", got, goroutines)
	}
}

// TestSpanTreeReconstruction interleaves span creation across goroutines
// and checks that the snapshot reconstructs the intended tree, not the
// wall-clock interleaving.
func TestSpanTreeReconstruction(t *testing.T) {
	o := New("test")
	root := o.Start("pipeline")
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := root.Child("measure")
			task.SetAttrInt("worker", int64(w))
			for i := 0; i < 3; i++ {
				c := task.Child("fi-batch")
				c.SetAttrInt("batch", int64(i))
				c.End()
			}
			task.End()
		}(w)
	}
	wg.Wait()
	root.End()

	ts := o.Trace.Snapshot()
	if len(ts.Spans) != 1 || ts.Spans[0].Name != "pipeline" {
		t.Fatalf("roots = %+v, want single pipeline root", ts.Spans)
	}
	counts := map[string]int{}
	ts.Walk(func(path string, s *SpanSnapshot) {
		counts[path]++
		if s.DurNS < 0 {
			t.Errorf("span %s has negative duration %d", path, s.DurNS)
		}
	})
	if counts["pipeline"] != 1 ||
		counts["pipeline/measure"] != workers ||
		counts["pipeline/measure/fi-batch"] != workers*3 {
		t.Errorf("span paths = %v, want 1 pipeline, %d measure, %d fi-batch",
			counts, workers, workers*3)
	}
}

func TestSnapshotClosesOpenSpans(t *testing.T) {
	tr := NewTrace("t")
	s := tr.Start("open")
	ts := tr.Snapshot()
	if len(ts.Spans) != 1 || ts.Spans[0].DurNS < 0 {
		t.Fatalf("open span snapshot = %+v, want closed-at-snapshot span", ts.Spans)
	}
	s.End()
}

func TestNilReceiversNoOp(t *testing.T) {
	var o *Obs
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x").Observe(1)
	sp := o.Start("x")
	sp.SetAttr("k", "v")
	sp.Child("y").End()
	sp.End()
	o.At(sp).Start("z").End()
	var reg *Registry
	reg.Counter("x").Add(5)
	if got := reg.Counter("x").Value(); got != 0 {
		t.Errorf("nil registry counter = %d, want 0", got)
	}
	if err := o.WriteOutputs("t", 0, "", "", ""); err != nil {
		t.Errorf("nil WriteOutputs: %v", err)
	}
}

func TestManifestRoundtripAndChromeTrace(t *testing.T) {
	o := New("test")
	sp := o.Start("phase")
	o.At(sp).Start("inner").End()
	sp.End()
	o.Counter("runs").Add(3)
	o.Histogram("wall").Observe(100)

	dir := t.TempDir()
	mp := filepath.Join(dir, "sub", "manifest.json")
	cp := filepath.Join(dir, "trace.json")
	if err := o.WriteOutputs("test", 42, "v1", mp, cp); err != nil {
		t.Fatalf("WriteOutputs: %v", err)
	}

	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Tool != "test" || m.Seed != 42 || m.AnalysisVersion != "v1" ||
		m.GoVersion == "" || m.GOMAXPROCS < 1 {
		t.Errorf("manifest env fields wrong: %+v", m)
	}
	if m.Registry.Counters["runs"] != 3 {
		t.Errorf("counter runs = %d, want 3", m.Registry.Counters["runs"])
	}
	found := map[string]bool{}
	m.Trace.Walk(func(path string, _ *SpanSnapshot) { found[path] = true })
	if !found["phase"] || !found["phase/inner"] {
		t.Errorf("trace paths = %v, want phase and phase/inner", found)
	}

	cdata, err := os.ReadFile(cp)
	if err != nil {
		t.Fatalf("read chrome trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(cdata, &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("chrome events = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("bad event %+v", ev)
		}
	}
}

func TestParseManifestRejectsBadSchema(t *testing.T) {
	if _, err := ParseManifest([]byte(`{"schema": 99}`)); err == nil {
		t.Fatal("schema 99 accepted")
	}
	if _, err := ParseManifest([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestChromeTraceLanesNest checks the lane packer: two concurrent siblings
// must land on different lanes (tids), children on their parent's lane.
func TestChromeTraceLanesNest(t *testing.T) {
	ts := &TraceSnapshot{Name: "t", Spans: []*SpanSnapshot{
		{Name: "a", StartNS: 0, DurNS: 100, Children: []*SpanSnapshot{
			{Name: "a1", StartNS: 10, DurNS: 50},
		}},
		{Name: "b", StartNS: 20, DurNS: 100}, // overlaps a
		{Name: "c", StartNS: 200, DurNS: 10}, // after both; reuses a lane
	}}
	evs := chromeEvents(ts)
	tid := map[string]int{}
	for _, e := range evs {
		tid[e.Name] = e.TID
	}
	if tid["a"] == tid["b"] {
		t.Errorf("overlapping roots share lane %d", tid["a"])
	}
	if tid["a1"] != tid["a"] {
		t.Errorf("child a1 on lane %d, parent a on %d", tid["a1"], tid["a"])
	}
	if tid["c"] != tid["a"] && tid["c"] != tid["b"] {
		t.Errorf("c opened new lane %d instead of reusing", tid["c"])
	}
}
