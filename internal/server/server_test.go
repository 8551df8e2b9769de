package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/interp"
)

// waitDone blocks until the job is terminal and returns its state.
func waitDone(t *testing.T, j *Job) string {
	t.Helper()
	<-j.Done()
	return j.State()
}

// closeAtCleanup closes s when the test ends. Registered after the
// store's t.TempDir (cleanups run last-registered first), it runs while
// the store still exists, and it asserts that every job goroutine has
// settled, so none can still be writing when the directory is removed.
func closeAtCleanup(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: job goroutines did not settle: %v", err)
		}
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		if active != 0 {
			t.Errorf("%d jobs still hold a running slot after Close", active)
		}
	})
}

// directResult runs the same campaign inline through the sectional
// path (the oracle the scheduler must match byte-for-byte).
func directResult(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	r, err := resolve(spec)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	var model fault.Model
	if spec.Model != "" {
		var ok bool
		if model, ok = fault.ModelByName(spec.Model); !ok {
			t.Fatalf("unknown model %q", spec.Model)
		}
	}
	res, profiles, err := r.prog.InjectionCampaignSectional(
		r.in, spec.Trials, spec.Seed, model, nil, nil, nil)
	if err != nil {
		t.Fatalf("direct campaign: %v", err)
	}
	doc := BuildResult(spec.Bench, r.prog.Spec.String(r.in), spec.Seed, spec.Model, res, profiles)
	return EncodeResult(doc)
}

// serverResult submits the spec to a fresh single-run server and
// returns the canonical result bytes.
func serverResult(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	s, err := New(Options{StoreDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, deduped, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if deduped {
		t.Fatalf("fresh store reported dedup")
	}
	if st := waitDone(t, j); st != StateDone {
		t.Fatalf("job ended %s: %s", st, j.Status().Error)
	}
	return EncodeResult(j.Result())
}

// TestServerMatchesDirect is the core determinism contract: a
// server-scheduled, sharded, store-mediated campaign must be
// bit-identical to the inline sectional campaign at the same seed,
// across fault models.
func TestServerMatchesDirect(t *testing.T) {
	for _, model := range []string{"", "byteflip"} {
		spec := JobSpec{Bench: "fft", Trials: 300, Seed: 9, Model: model}
		direct := directResult(t, spec)
		got := serverResult(t, spec)
		if !bytes.Equal(direct, got) {
			t.Errorf("model %q: server result differs from direct run\ndirect:\n%s\nserver:\n%s",
				model, direct, got)
		}
	}
}

// TestServerMatchesDirectAcrossEngines pins the same contract under
// both execution engines: the engine is observational, so the server
// result must not move.
func TestServerMatchesDirectAcrossEngines(t *testing.T) {
	spec := JobSpec{Bench: "fft", Trials: 200, Seed: 3}
	want := directResult(t, spec)
	old := interp.DefaultEngine
	defer func() { interp.DefaultEngine = old }()
	for _, eng := range []interp.Engine{interp.EngineLegacy, interp.EngineCompiled} {
		interp.DefaultEngine = eng
		if got := serverResult(t, spec); !bytes.Equal(want, got) {
			t.Errorf("engine %s: server result differs from direct oracle", eng)
		}
	}
}

// TestServerRandomInputResolution pins content addressing of inputs:
// the same (input, input_seed) pair resolves to the same job, and the
// campaign matches the direct run on the resolved input.
func TestServerRandomInputResolution(t *testing.T) {
	spec := JobSpec{Bench: "kmeans", Input: "random", InputSeed: 11, Trials: 150, Seed: 2}
	if !bytes.Equal(directResult(t, spec), serverResult(t, spec)) {
		t.Errorf("random-input server result differs from direct run")
	}
}

// TestPreemptResumeZeroReinjection simulates a mid-job kill: the
// crash-test hook parks the job after one committed shard with the
// on-disk record still "running"; a second server on the same store
// must resume it, serve the committed shard from disk (zero re-
// injected faults), execute only the remainder, and produce the same
// bytes as the direct run.
func TestPreemptResumeZeroReinjection(t *testing.T) {
	spec := JobSpec{Bench: "fft", Trials: 300, Seed: 9}
	dir := t.TempDir()

	s1, err := New(Options{StoreDir: dir, Workers: 1, PreemptAfter: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitDone(t, j1); st != StateFailed {
		t.Fatalf("preempted job ended %s, want failed (parked)", st)
	}
	stats1 := s1.StoreStats()
	if stats1.Runs != 1 {
		t.Fatalf("preempted server ran %d shards, want exactly 1", stats1.Runs)
	}

	// "Restart": a fresh server over the same store resumes the parked
	// job automatically.
	s2, err := New(Options{StoreDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("New(resume): %v", err)
	}
	j2, ok := s2.Get(j1.ID)
	if !ok {
		t.Fatalf("resumed server does not know job %s", j1.ID)
	}
	if st := waitDone(t, j2); st != StateDone {
		t.Fatalf("resumed job ended %s: %s", st, j2.Status().Error)
	}
	stats2 := s2.StoreStats()
	total := j2.Status().Shards.Total
	if stats2.DiskHits != 1 {
		t.Errorf("resumed server: %d disk hits, want 1 (the committed shard)", stats2.DiskHits)
	}
	if want := int64(total) - 1; stats2.Runs != want {
		t.Errorf("resumed server: %d runs, want %d (zero re-injection into committed shards)",
			stats2.Runs, want)
	}
	if got, want := EncodeResult(j2.Result()), directResult(t, spec); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from direct run")
	}
	if c := s2.Obs().Counter("server.jobs.resumed").Value(); c != 1 {
		t.Errorf("server.jobs.resumed = %d, want 1", c)
	}
}

// TestDedupCrossTenant: two identical submissions from different
// tenants share one job (the second joins), and only one execution is
// admitted or charged.
func TestDedupCrossTenant(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Options{StoreDir: t.TempDir(), Workers: 2, holdJobs: hold})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := JobSpec{Bench: "fft", Trials: 100, Seed: 4, Tenant: "alice"}
	j1, dedup1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	spec2 := spec
	spec2.Tenant = "bob"
	j2, dedup2, err := s.Submit(spec2)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if dedup1 || !dedup2 {
		t.Fatalf("dedup flags = %v,%v, want false,true", dedup1, dedup2)
	}
	if j1 != j2 {
		t.Fatalf("identical specs mapped to different jobs %s and %s", j1.ID, j2.ID)
	}
	close(hold)
	if st := waitDone(t, j1); st != StateDone {
		t.Fatalf("job ended %s", st)
	}
	if c := s.Obs().Counter("server.dedup.joins").Value(); c != 1 {
		t.Errorf("server.dedup.joins = %d, want 1", c)
	}
	if c := s.Obs().Counter("server.jobs.admitted").Value(); c != 1 {
		t.Errorf("server.jobs.admitted = %d, want 1 (single flight)", c)
	}
}

// TestConcurrentSubmitStress hammers Submit from many goroutines with
// a mix of identical and distinct specs (run under -race in CI). The
// single-flight invariant: exactly one admission per distinct spec,
// every duplicate a join.
func TestConcurrentSubmitStress(t *testing.T) {
	const distinct, dupsEach = 4, 6
	s, err := New(Options{StoreDir: t.TempDir(), Workers: 4,
		MaxActive: 2, MaxQueue: distinct * 2, TenantMax: distinct * 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, distinct*dupsEach)
	jobs := make(chan *Job, distinct*dupsEach)
	for d := 0; d < distinct; d++ {
		for k := 0; k < dupsEach; k++ {
			wg.Add(1)
			go func(d, k int) {
				defer wg.Done()
				spec := JobSpec{Bench: "fft", Trials: 60, Seed: int64(100 + d),
					Tenant: fmt.Sprintf("t%d", k%3)}
				j, _, err := s.Submit(spec)
				if err != nil {
					errs <- fmt.Errorf("submit d=%d k=%d: %w", d, k, err)
					return
				}
				jobs <- j
			}(d, k)
		}
	}
	wg.Wait()
	close(errs)
	close(jobs)
	for err := range errs {
		t.Error(err)
	}
	seen := map[string]*Job{}
	for j := range jobs {
		seen[j.ID] = j
	}
	if len(seen) != distinct {
		t.Fatalf("got %d distinct jobs, want %d", len(seen), distinct)
	}
	for _, j := range seen {
		if st := waitDone(t, j); st != StateDone {
			t.Errorf("job %s ended %s: %s", j.ID, st, j.Status().Error)
		}
	}
	if c := s.Obs().Counter("server.jobs.admitted").Value(); c != distinct {
		t.Errorf("server.jobs.admitted = %d, want %d", c, distinct)
	}
	if c := s.Obs().Counter("server.dedup.joins").Value(); c != distinct*(dupsEach-1) {
		t.Errorf("server.dedup.joins = %d, want %d", c, distinct*(dupsEach-1))
	}
}

// TestAdmissionControl pins the backpressure contract: a full queue
// and an over-quota tenant both reject with a retry hint, and
// canceling a queued job drains its slot immediately.
func TestAdmissionControl(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Options{StoreDir: t.TempDir(), Workers: 1,
		MaxActive: 1, MaxQueue: 1, TenantMax: 2, holdJobs: hold})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	closeAtCleanup(t, s)
	mkSpec := func(seed int64, tenant string) JobSpec {
		return JobSpec{Bench: "fft", Trials: 50, Seed: seed, Tenant: tenant}
	}
	if _, _, err := s.Submit(mkSpec(1, "alice")); err != nil { // runs (held)
		t.Fatalf("submit 1: %v", err)
	}
	j2, _, err := s.Submit(mkSpec(2, "alice")) // queued
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if st := j2.State(); st != StateQueued {
		t.Fatalf("job 2 state %s, want queued", st)
	}

	// Queue full: bob is under his tenant quota but there is no room.
	_, _, err = s.Submit(mkSpec(3, "bob"))
	rej, ok := err.(*RejectError)
	if !ok {
		t.Fatalf("queue-full submit returned %v, want *RejectError", err)
	}
	if rej.RetryAfterSeconds <= 0 {
		t.Errorf("reject has no Retry-After hint")
	}

	// Tenant quota: alice already has 2 jobs in flight; even after the
	// queue drains she is over quota.
	if _, ok := s.Cancel(j2.ID); !ok {
		t.Fatalf("cancel queued job failed")
	}
	if st := waitDone(t, j2); st != StateCanceled {
		t.Fatalf("canceled job state %s", st)
	}
	if _, _, err = s.Submit(mkSpec(4, "alice")); err != nil {
		t.Fatalf("submit after cancel-drain should admit, got %v", err)
	}
	if _, _, err = s.Submit(mkSpec(5, "alice")); err == nil {
		t.Fatalf("tenant over quota was admitted")
	} else if _, ok := err.(*RejectError); !ok {
		t.Fatalf("tenant-quota submit returned %v, want *RejectError", err)
	}
	if c := s.Obs().Counter("server.jobs.rejected").Value(); c != 2 {
		t.Errorf("server.jobs.rejected = %d, want 2", c)
	}
	close(hold)
}

// TestCancelRunningDrainsOnce pins the cancel/start race fix: a job
// is StateRunning the moment its run slot is taken (before the runJob
// goroutine is scheduled), so a cancel racing job start always takes
// the cooperative path. Repeated cancels — running, then terminal —
// must drain the tenant charge and running slot exactly once and never
// re-close the done channel.
func TestCancelRunningDrainsOnce(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Options{StoreDir: t.TempDir(), Workers: 1, MaxActive: 1, holdJobs: hold})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, _, err := s.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: 1, Tenant: "alice"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := j.State(); st != StateRunning {
		t.Fatalf("job state %s immediately after admission to a free slot, want running", st)
	}
	for i := 0; i < 2; i++ { // second cancel of a running job is a no-op
		if _, ok := s.Cancel(j.ID); !ok {
			t.Fatalf("cancel %d failed", i)
		}
	}
	close(hold)
	if st := waitDone(t, j); st != StateCanceled {
		t.Fatalf("job ended %s, want canceled", st)
	}
	if _, ok := s.Cancel(j.ID); !ok { // cancel of a terminal job: no-op, no panic
		t.Fatalf("cancel of terminal job failed")
	}
	s.mu.Lock()
	tenant, active := s.tenants["alice"], s.active
	s.mu.Unlock()
	if tenant != 0 {
		t.Errorf("tenant charge = %d after cancel, want 0 (drained exactly once)", tenant)
	}
	if active != 0 {
		t.Errorf("active = %d after cancel, want 0", active)
	}
}

// TestResubmitQuotaFollowsSubmitter: resubmitting a canceled job from
// a different tenant charges (and quota-checks) the resubmitter, not
// the original submitter.
func TestResubmitQuotaFollowsSubmitter(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Options{StoreDir: t.TempDir(), Workers: 1,
		MaxActive: 1, MaxQueue: 4, TenantMax: 1, holdJobs: hold})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The filler occupies the only run slot so the target stays queued.
	filler, _, err := s.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: 1, Tenant: "alice"})
	if err != nil {
		t.Fatalf("submit filler: %v", err)
	}
	target := JobSpec{Bench: "fft", Trials: 50, Seed: 2, Tenant: "bob"}
	j, _, err := s.Submit(target)
	if err != nil {
		t.Fatalf("submit target: %v", err)
	}
	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatalf("cancel queued target failed")
	}
	if st := waitDone(t, j); st != StateCanceled {
		t.Fatalf("target ended %s, want canceled", st)
	}

	resub := target
	resub.Tenant = "carol"
	j2, deduped, err := s.Submit(resub)
	if err != nil {
		t.Fatalf("resubmit as carol: %v", err)
	}
	if deduped || j2 != j {
		t.Fatalf("resubmit: deduped=%v same-job=%v, want fresh attempt on the same job", deduped, j2 == j)
	}
	if got := j2.Status().Tenant; got != "carol" {
		t.Errorf("resubmitted job tenant %q, want carol", got)
	}
	s.mu.Lock()
	bob, carol := s.tenants["bob"], s.tenants["carol"]
	s.mu.Unlock()
	if bob != 0 || carol != 1 {
		t.Errorf("tenant charges bob=%d carol=%d, want 0 and 1 (quota follows the resubmitter)", bob, carol)
	}
	// Carol is now at her quota of 1; her next distinct job rejects.
	if _, _, err := s.Submit(JobSpec{Bench: "fft", Trials: 50, Seed: 3, Tenant: "carol"}); err == nil {
		t.Errorf("carol over quota was admitted")
	} else if _, ok := err.(*RejectError); !ok {
		t.Errorf("carol over quota returned %v, want *RejectError", err)
	}
	close(hold)
	if st := waitDone(t, filler); st != StateDone {
		t.Errorf("filler ended %s", st)
	}
	if st := waitDone(t, j2); st != StateDone {
		t.Errorf("resubmitted job ended %s: %s", st, j2.Status().Error)
	}
	s.mu.Lock()
	carol = s.tenants["carol"]
	s.mu.Unlock()
	if carol != 0 {
		t.Errorf("carol charge = %d after completion, want 0", carol)
	}
}

// TestJobIDContentAddressed pins what may and may not move the job
// identity: tenant never; trials, seed, model, and resolved input
// always.
func TestJobIDContentAddressed(t *testing.T) {
	base := JobSpec{Bench: "fft", Trials: 100, Seed: 1, Tenant: "alice"}
	key := func(spec JobSpec) string {
		r, err := resolve(spec)
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		return jobKey(r).Hex()
	}
	id := key(base)
	tenant := base
	tenant.Tenant = "bob"
	if key(tenant) != id {
		t.Errorf("tenant changed the job identity")
	}
	refSpelled := base
	refSpelled.Input = "ref"
	if key(refSpelled) != id {
		t.Errorf("explicit \"ref\" spelling changed the job identity")
	}
	modelSpelled := base
	modelSpelled.Model = "bitflip"
	if key(modelSpelled) != id {
		t.Errorf("canonical model spelling changed the job identity")
	}
	for name, mut := range map[string]func(*JobSpec){
		"trials": func(s *JobSpec) { s.Trials++ },
		"seed":   func(s *JobSpec) { s.Seed++ },
		"model":  func(s *JobSpec) { s.Model = "byteflip" },
		"bench":  func(s *JobSpec) { s.Bench = "kmeans" },
	} {
		spec := base
		mut(&spec)
		if key(spec) == id {
			t.Errorf("%s change did not move the job identity", name)
		}
	}
}

// TestSubmitValidation rejects malformed specs with plain errors
// (HTTP 400), never admission errors.
func TestSubmitValidation(t *testing.T) {
	s, err := New(Options{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for name, spec := range map[string]JobSpec{
		"zero trials":   {Bench: "fft", Trials: 0, Seed: 1},
		"bad benchmark": {Bench: "no-such-bench", Trials: 10, Seed: 1},
		"bad input":     {Bench: "fft", Input: "weird", Trials: 10, Seed: 1},
		"bad model":     {Bench: "fft", Model: "no-such-model", Trials: 10, Seed: 1},
	} {
		_, _, err := s.Submit(spec)
		if err == nil {
			t.Errorf("%s: admitted", name)
		}
		if _, ok := err.(*RejectError); ok {
			t.Errorf("%s: got admission reject, want validation error", name)
		}
	}
}

// TestRestartServesPersistedResult: a completed job's result survives
// the server process; a resubmission on a fresh server over the same
// store joins it without re-running anything.
func TestRestartServesPersistedResult(t *testing.T) {
	spec := JobSpec{Bench: "fft", Trials: 120, Seed: 6}
	dir := t.TempDir()
	s1, err := New(Options{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitDone(t, j1); st != StateDone {
		t.Fatalf("job ended %s", st)
	}
	want := EncodeResult(j1.Result())

	s2, err := New(Options{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("New(restart): %v", err)
	}
	j2, deduped, err := s2.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !deduped || j2.State() != StateDone {
		t.Fatalf("resubmit on warm store: deduped=%v state=%s, want join of done job",
			deduped, j2.State())
	}
	if got := EncodeResult(j2.Result()); !bytes.Equal(got, want) {
		t.Errorf("persisted result differs after restart")
	}
	if runs := s2.StoreStats().Runs; runs != 0 {
		t.Errorf("restart re-ran %d shards, want 0", runs)
	}
	// A disk-joined job reports full shard progress (synthesized from
	// its section count), consistent with a freshly completed job.
	if p := j2.Status().Shards; p.Total == 0 || p.Done != p.Total {
		t.Errorf("disk-joined job reports shards %d/%d, want full progress", p.Done, p.Total)
	}
	if p1, p2 := j1.Status().Shards, j2.Status().Shards; p1 != p2 {
		t.Errorf("disk-joined progress %+v differs from fresh job's %+v", p2, p1)
	}
}

// TestComposePlannedOverflowShortfall: a trial budget exceeding the
// program's total injectable weight surfaces as shortfall through the
// scheduler exactly as it does inline.
func TestComposePlannedOverflowShortfall(t *testing.T) {
	spec := JobSpec{Bench: "fft", Trials: 40, Seed: 12}
	direct := directResult(t, spec)
	got := serverResult(t, spec)
	if !bytes.Equal(direct, got) {
		t.Errorf("small-budget result differs from direct run")
	}
}

// TestCloseParksAndRestartResumes pins graceful shutdown: Close rejects
// new submissions, leaves queued jobs queued, parks running jobs without
// a terminal record, and returns once their goroutines exit. A server
// restarted on the same store then resumes both jobs, exactly as after a
// SIGKILL, and finishes them with the direct run's bytes.
func TestCloseParksAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	s1, err := New(Options{StoreDir: dir, Workers: 1, MaxActive: 1, holdJobs: hold})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	running, _, err := s1.Submit(JobSpec{Bench: "fft", Trials: 120, Seed: 21})
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	queued, _, err := s1.Submit(JobSpec{Bench: "fft", Trials: 120, Seed: 22})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := running.State(); st != StateFailed {
		t.Fatalf("running job after Close: %s, want failed (parked)", st)
	}
	if msg := running.Status().Error; !strings.Contains(msg, "server closed") {
		t.Errorf("parked job error %q does not name the shutdown", msg)
	}
	if st := queued.State(); st != StateQueued {
		t.Errorf("queued job after Close: %s, want still queued", st)
	}
	if _, _, err := s1.Submit(JobSpec{Bench: "fft", Trials: 120, Seed: 23}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
	ts := httptest.NewServer(s1.Handler())
	defer ts.Close()
	if _, err := NewClient(ts.URL).Submit(JobSpec{Bench: "fft", Trials: 120, Seed: 23}); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Errorf("HTTP submit after Close: %v, want HTTP 503", err)
	}

	s2, err := New(Options{StoreDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("New(restart): %v", err)
	}
	closeAtCleanup(t, s2)
	if c := s2.Obs().Counter("server.jobs.resumed").Value(); c != 2 {
		t.Errorf("server.jobs.resumed = %d, want 2 (the parked and the queued job)", c)
	}
	for _, j := range []*Job{running, queued} {
		j2, ok := s2.Get(j.ID)
		if !ok {
			t.Fatalf("restarted server does not know job %s", j.ID)
		}
		if st := waitDone(t, j2); st != StateDone {
			t.Fatalf("resumed job ended %s: %s", st, j2.Status().Error)
		}
		if got, want := EncodeResult(j2.Result()), directResult(t, j.Spec); !bytes.Equal(got, want) {
			t.Errorf("resumed job %s differs from the direct run", j.ID)
		}
	}
}
