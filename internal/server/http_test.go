package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer starts an in-process HTTP server over a fresh store.
func newTestServer(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	if opt.StoreDir == "" {
		opt.StoreDir = t.TempDir()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	closeAtCleanup(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

// TestHTTPSubmitWatchResult drives the full client/server round trip:
// submit, SSE watch to terminal, fetch the canonical result, and
// compare it byte-for-byte with the direct run.
func TestHTTPSubmitWatchResult(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	spec := JobSpec{Bench: "fft", Trials: 200, Seed: 3, Tenant: "alice"}
	resp, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Deduped {
		t.Fatalf("first submission reported dedup")
	}
	var progress bytes.Buffer
	st, err := c.Watch(resp.ID, &progress)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Shards.Done != st.Shards.Total || st.Shards.Total == 0 {
		t.Errorf("final shards %d/%d, want all done", st.Shards.Done, st.Shards.Total)
	}
	if !strings.Contains(progress.String(), "done") {
		t.Errorf("watch output missing terminal line: %q", progress.String())
	}
	data, err := c.Result(resp.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if want := directResult(t, spec); !bytes.Equal(data, want) {
		t.Errorf("HTTP result differs from direct run")
	}

	// Second submission from another tenant joins the completed job.
	spec.Tenant = "bob"
	resp2, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !resp2.Deduped || resp2.ID != resp.ID {
		t.Errorf("cross-tenant resubmit: deduped=%v id=%s, want join of %s",
			resp2.Deduped, resp2.ID, resp.ID)
	}
}

// TestHTTPBackpressure pins the wire form of admission rejection:
// 429 with a Retry-After header.
func TestHTTPBackpressure(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	_, c := newTestServer(t, Options{Workers: 1, MaxActive: 1, MaxQueue: 1, TenantMax: 4, holdJobs: hold})
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := c.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: seed}); err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
	}
	_, err := c.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: 3})
	if err == nil {
		t.Fatalf("saturated server admitted a third job")
	}
	if !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "Retry-After") {
		t.Errorf("backpressure error missing 429/Retry-After: %v", err)
	}
}

// TestHTTPCancelAndErrors covers the remaining endpoints: cancel of a
// queued job, 404 on unknown IDs, 409 on a result not yet available,
// and 400 on malformed submissions.
func TestHTTPCancelAndErrors(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	srv, c := newTestServer(t, Options{Workers: 1, MaxActive: 1, MaxQueue: 2, holdJobs: hold})

	if _, err := c.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: 1}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	resp, err := c.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: 2})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}

	// Result of a queued job: 409.
	if _, err := c.Result(resp.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("result of queued job: %v, want HTTP 409", err)
	}
	st, err := c.Cancel(resp.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st.State != StateCanceled {
		t.Errorf("canceled job state %s", st.State)
	}
	if _, err := c.Status("deadbeef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job status: %v, want HTTP 404", err)
	}
	if _, err := c.Submit(JobSpec{Bench: "fft", Trials: -1, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("malformed submit: %v, want HTTP 400", err)
	}

	// Stats endpoint exposes the canceled-job counter.
	var stats StatsResponse
	if err := getJSON(t, c, "/v1/stats", &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Counters["server.jobs.canceled"] != 1 {
		t.Errorf("stats canceled counter = %d, want 1", stats.Counters["server.jobs.canceled"])
	}
	_ = srv
}

// getJSON fetches a path through the client's base URL.
func getJSON(t *testing.T, c *Client, path string, out any) error {
	t.Helper()
	return c.getJSON(path, out)
}

// TestHTTPSubmitBodyBounded: a submission body over the cap is cut off
// with 413, not decoded without bound.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	_, c := newTestServer(t, Options{})
	body := strings.NewReader(`{"bench":"` + strings.Repeat("x", maxSubmitBytes+1) + `"}`)
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatalf("oversized submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit status = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}

// TestHTTPHealthz pins the liveness endpoint.
func TestHTTPHealthz(t *testing.T) {
	_, c := newTestServer(t, Options{})
	resp, err := http.Get(c.Base + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}
