package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// shardSpanPrefix names the per-shard spans under a job's span. A
// shard span opens when the shard is dispatched and ends when its
// artifact is committed (or its execution fails), so the span
// subtree's Progress is exactly the job's committed/planned counter.
const shardSpanPrefix = "shard:"

// Options configures a Server.
type Options struct {
	// StoreDir roots the content-addressed artifact store: shard
	// artifacts, job envelopes, and canonical results all live here. A
	// server restarted on the same store resumes every non-terminal
	// job and re-executes only uncommitted shards. Required.
	StoreDir string
	// Workers bounds concurrently executing shards across ALL jobs
	// (0 = GOMAXPROCS). Each shard itself runs single-threaded, so
	// this is the server's total campaign parallelism.
	Workers int
	// MaxActive bounds concurrently running jobs (0 = 2). Queued jobs
	// beyond it wait for a slot in admission order.
	MaxActive int
	// MaxQueue bounds the admission queue (0 = 16). A submission that
	// finds the queue full is rejected with a retry hint.
	MaxQueue int
	// TenantMax bounds one tenant's queued+running jobs (0 = MaxQueue).
	TenantMax int
	// RetryAfterSeconds is the Retry-After hint on admission
	// rejections (0 = 1).
	RetryAfterSeconds int
	// PreemptAfter is a crash-test hook: when positive, every job
	// stops dispatching new shards after this many have committed and
	// parks WITHOUT writing a terminal record — exactly the on-disk
	// state a SIGKILL leaves behind. Tests restart a server on the
	// same store and assert the resumed job re-injects zero faults
	// into committed shards. Never set in production.
	PreemptAfter int
	// Obs receives spans and counters (nil = a private instance).
	Obs *obs.Obs
	// holdJobs, when non-nil, blocks every runJob after its running
	// transition until the channel closes (or Close begins) — a test
	// hook that pins jobs in the running state so admission and dedup
	// behavior can be asserted without racing campaign completion.
	holdJobs chan struct{}
}

// Server is the campaign service: admission control, the sharded
// scheduler, and the job store. HTTP transport lives in http.go; the
// methods here are the engine and are directly usable in-process.
type Server struct {
	opt   Options
	pipe  *pipeline.Pipeline
	store *pipeline.DiskStore
	env   pipeline.Env
	ob    *obs.Obs

	mu      sync.Mutex
	jobs    map[string]*Job
	queue   []*Job
	active  int
	tenants map[string]int
	seq     int64

	quit    chan struct{}  // closed when Close begins
	running sync.WaitGroup // one count per live runJob goroutine
}

// New builds a server over the given store and resumes every
// non-terminal persisted job (queued or running at the time of a
// crash or kill). Resumption is ordered by the jobs' admission
// sequence numbers, so a restart preserves the original order.
func New(opt Options) (*Server, error) {
	if opt.StoreDir == "" {
		return nil, fmt.Errorf("server: StoreDir is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.MaxActive <= 0 {
		opt.MaxActive = 2
	}
	if opt.MaxQueue <= 0 {
		opt.MaxQueue = 16
	}
	if opt.TenantMax <= 0 {
		opt.TenantMax = opt.MaxQueue
	}
	if opt.RetryAfterSeconds <= 0 {
		opt.RetryAfterSeconds = 1
	}
	pipe, err := pipeline.New(pipeline.Options{Workers: opt.Workers, DiskDir: opt.StoreDir})
	if err != nil {
		return nil, err
	}
	store, err := pipeline.NewDiskStore(opt.StoreDir)
	if err != nil {
		return nil, err
	}
	ob := opt.Obs
	if ob == nil {
		ob = obs.New("sdcfid")
	}
	pipe.SetObs(ob)
	s := &Server{
		opt:   opt,
		pipe:  pipe,
		store: store,
		env:   pipeline.Env{Cache: fault.NewCache(0), Metrics: fault.NewMetrics(), Workers: 1},
		ob:    ob,
		jobs:  make(map[string]*Job),
		// tenants counts each tenant's queued+running jobs; joiners of
		// a deduped job are never charged.
		tenants: make(map[string]int),
		quit:    make(chan struct{}),
	}
	s.resume()
	return s, nil
}

// Obs returns the server's observability context (dedup counters,
// job/shard spans, pipeline node traffic).
func (s *Server) Obs() *obs.Obs { return s.ob }

// StoreStats returns the shard store traffic: disk hits are shards
// served from committed artifacts, runs are shards actually executed.
func (s *Server) StoreStats() pipeline.StoreStats { return s.pipe.Stats() }

// ErrClosed is returned by Submit once Close has begun.
var ErrClosed = errors.New("server: closed")

// RejectError is an admission refusal: the cluster is saturated or
// the tenant is over quota. RetryAfterSeconds is the backpressure
// hint (HTTP maps this to 429 + Retry-After).
type RejectError struct {
	Reason            string
	RetryAfterSeconds int
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("server: rejected: %s (retry after %ds)", e.Reason, e.RetryAfterSeconds)
}

// Submit admits one campaign submission. The returned bool reports a
// dedup join: the spec hashed to a job that already exists (queued,
// running, or done — including results persisted by an earlier server
// on the same store), so this submission costs nothing and is not
// charged against the tenant's quota. Validation failures return a
// plain error; admission refusals return *RejectError; after Close
// every submission returns ErrClosed.
func (s *Server) Submit(spec JobSpec) (*Job, bool, error) {
	r, err := resolve(spec)
	if err != nil {
		return nil, false, err
	}
	key := jobKey(r)
	id := key.Hex()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing() {
		return nil, false, ErrClosed
	}
	if j, ok := s.jobs[id]; ok {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == StateFailed || state == StateCanceled {
			// A failed or canceled job may be resubmitted: it re-enters
			// admission as a fresh attempt under the same identity, charged
			// to the resubmitting tenant.
			if rej := s.admitLocked(j, spec.Tenant); rej != nil {
				return nil, false, rej
			}
			return j, false, nil
		}
		s.ob.Counter("server.dedup.joins").Inc()
		return j, true, nil
	}
	// A completed result persisted by an earlier server process on
	// this store satisfies the submission immediately.
	if res, ok := s.loadResult(key); ok {
		j := newJob(id, key, spec, s.nextSeq())
		j.state = StateDone
		j.result = res
		// A disk-joined job has no span tree to count shards from; its
		// sections ARE its committed shards, so seed total from them and
		// let Status synthesize the matching done count.
		j.total = len(res.Sections)
		close(j.done)
		s.jobs[id] = j
		s.ob.Counter("server.dedup.joins").Inc()
		return j, true, nil
	}
	j := newJob(id, key, spec, s.nextSeq())
	if rej := s.admitLocked(j, spec.Tenant); rej != nil {
		return nil, false, rej
	}
	s.jobs[id] = j
	return j, false, nil
}

// nextSeq issues the next admission sequence number (mu held).
func (s *Server) nextSeq() int64 {
	s.seq++
	return s.seq
}

// admitLocked applies admission control to a new or resubmitted job
// and enqueues it (mu held). The job's state is reset to queued.
// Quota follows the actual submitter: a resubmission of a failed or
// canceled job by a different tenant is checked and charged against
// THAT tenant, and j.Spec.Tenant is updated so the terminal release
// drains the same account.
func (s *Server) admitLocked(j *Job, tenant string) *RejectError {
	if s.tenants[tenant] >= s.opt.TenantMax {
		s.ob.Counter("server.jobs.rejected").Inc()
		return &RejectError{Reason: fmt.Sprintf("tenant %q over quota (%d jobs)", tenant, s.opt.TenantMax),
			RetryAfterSeconds: s.opt.RetryAfterSeconds}
	}
	if len(s.queue) >= s.opt.MaxQueue {
		s.ob.Counter("server.jobs.rejected").Inc()
		return &RejectError{Reason: fmt.Sprintf("queue full (%d jobs)", s.opt.MaxQueue),
			RetryAfterSeconds: s.opt.RetryAfterSeconds}
	}
	j.mu.Lock()
	if terminal(j.state) {
		j.done = make(chan struct{})
	}
	j.state = StateQueued
	j.errMsg = ""
	j.cancel = false
	j.Spec.Tenant = tenant
	j.mu.Unlock()
	s.tenants[tenant]++
	s.ob.Counter("server.jobs.admitted").Inc()
	s.persistRecord(j, StateQueued, "")
	s.queue = append(s.queue, j)
	s.pumpLocked()
	return nil
}

// pumpLocked starts queued jobs while running slots are free and the
// server is not closing (mu held). The running transition happens
// HERE, under s.mu, before the job goroutine exists: a Cancel arriving
// between dispatch and the first instruction of runJob must observe
// StateRunning and take the cooperative path, not the queued path
// (which would drain the tenant charge a second time and race
// finishJob on the done channel).
func (s *Server) pumpLocked() {
	for !s.closing() && s.active < s.opt.MaxActive && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.active++
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		s.running.Add(1)
		go s.runJob(j)
	}
}

// Close shuts the scheduler down. It rejects new submissions, starts
// no more queued jobs, and makes running jobs stop dispatching shards:
// in-flight shards drain and commit, then each job parks through the
// preemption path without a terminal record, so a server restarted on
// the same store resumes it exactly as after a SIGKILL. Close returns
// once every job goroutine has exited, or with ctx's error if ctx ends
// first. It may be called more than once.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closing() {
		close(s.quit)
	}
	s.mu.Unlock()
	settled := make(chan struct{})
	go func() {
		s.running.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// closing reports whether Close has begun.
func (s *Server) closing() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Cancel cancels a job: dequeued immediately when still queued (its
// queue slot and tenant charge drain right away), or marked so the
// scheduler stops dispatching new shards when running. Committed
// shard artifacts always survive — a resubmission resumes from them.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.tenants[j.Spec.Tenant]--
		s.mu.Unlock()
		s.finishJob(j, StateCanceled, "", nil, false)
		return j, true
	case StateRunning:
		j.requestCancel()
		s.mu.Unlock()
		return j, true
	default:
		s.mu.Unlock()
		return j, true
	}
}

// Jobs snapshots every known job's status, ordered by admission
// sequence.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	list := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		list = append(list, j)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, k int) bool { return list[i].Seq < list[k].Seq })
	out := make([]JobStatus, len(list))
	for i, j := range list {
		out[i] = j.Status()
	}
	return out
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// ---------------------------------------------------------------------
// Scheduler core

// runJob executes one admitted job: plan the sectional campaign,
// dispatch shards across the worker pool, compose, persist. The job is
// already StateRunning — pumpLocked transitions it before spawning.
func (s *Server) runJob(j *Job) {
	defer s.running.Done()
	s.persistRecord(j, StateRunning, "")
	span := s.ob.Start("job:" + j.Key.Short())
	j.mu.Lock()
	j.span = span
	j.mu.Unlock()
	if s.opt.holdJobs != nil {
		select {
		case <-s.opt.holdJobs:
		case <-s.quit:
		}
	}

	res, profiles, plans, err := s.runShards(j, span)
	span.End()
	switch {
	case err != nil:
		s.finishJob(j, StateFailed, err.Error(), nil, false)
	case j.canceled():
		s.finishJob(j, StateCanceled, "", nil, false)
	case len(profiles) < len(plans):
		// The crash-test hook or Close stopped dispatch mid-job. Park
		// without a terminal record — on disk the job still reads
		// "running", the state a SIGKILL leaves — so a restarted server
		// resumes it.
		why := "crash-test hook"
		if s.closing() {
			why = "server closed"
		}
		s.finishJob(j, StateFailed,
			fmt.Sprintf("preempted after %d of %d shards (%s)", len(profiles), len(plans), why),
			nil, true)
	default:
		result := BuildResult(j.Spec.Bench, res.input, j.Spec.Seed, j.Spec.Model, res.res, profiles)
		s.persistResult(j, result)
		s.ob.Counter("server.jobs.completed").Inc()
		s.finishJob(j, StateDone, "", result, false)
	}
}

// composed bundles the campaign table with the resolved input's
// canonical rendering (needed by the result document).
type composed struct {
	res   fault.CampaignResult
	input string
}

// runShards plans and executes a job's shards. It returns the
// composed table, the profiles collected so far (all of them on
// success, a prefix under preemption), and the full plan. Dispatch
// stops at the first shard error, a cancel request, an exhausted
// preemption budget, or Close; in-flight shards always drain first.
func (s *Server) runShards(j *Job, span *obs.Span) (composed, []fault.SectionProfile, []fault.SectionTrialPlan, error) {
	r, err := resolve(j.Spec)
	if err != nil {
		return composed{}, nil, nil, err
	}
	model, ok := fault.ModelByName(pipeline.NormModel(j.Spec.Model))
	if !ok {
		return composed{}, nil, nil, fmt.Errorf("unknown fault model %q", j.Spec.Model)
	}
	bind := r.prog.Bind(r.in)
	pm := s.env.Metrics.Phase(fault.PhaseProgramFI)
	golden, err := s.env.Cache.Golden(r.prog.Module, bind, r.prog.Exec, pm)
	if err != nil {
		return composed{}, nil, nil, fmt.Errorf("golden run: %w", err)
	}
	camp := &fault.Campaign{Mod: r.prog.Module, Bind: bind, Cfg: r.prog.Exec,
		Golden: golden, Model: model, Metrics: pm}
	plans := camp.PlanSectional(j.Spec.Trials, j.Spec.Seed, false)
	ctxs := pipeline.SectionContexts(r.prog.Module, golden)
	ctxOf := make(map[string]pipeline.SectionCtx, len(ctxs))
	for _, c := range ctxs {
		ctxOf[c.Sec.Name()] = c
	}
	j.mu.Lock()
	j.total = len(plans)
	j.mu.Unlock()

	// Dispatch: one goroutine per shard, gated by a dispatch window the
	// size of the worker pool so a cancel or preemption takes effect at
	// the next shard boundary instead of after everything is in flight.
	// The pipeline's own slots bound actual execution; committed shards
	// come back as disk hits without costing a single injected fault.
	var (
		wg       sync.WaitGroup
		gate     = make(chan struct{}, s.opt.Workers)
		resMu    sync.Mutex
		profiles = make([]*fault.SectionProfile, len(plans))
		firstErr error
	)
	commit := func(i int, p *fault.SectionProfile, err error) {
		resMu.Lock()
		defer resMu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		profiles[i] = p
	}
	committed := func() int {
		resMu.Lock()
		defer resMu.Unlock()
		n := 0
		for _, p := range profiles {
			if p != nil {
				n++
			}
		}
		return n
	}
	failed := func() bool {
		resMu.Lock()
		defer resMu.Unlock()
		return firstErr != nil
	}
	for i, p := range plans {
		// Acquire the dispatch slot BEFORE the stop checks: at Workers=1
		// this serializes shard boundaries, making the crash-test hook
		// deterministic (exactly PreemptAfter shards commit).
		gate <- struct{}{}
		if j.canceled() || failed() || s.closing() ||
			(s.opt.PreemptAfter > 0 && committed() >= s.opt.PreemptAfter) {
			<-gate
			break
		}
		wg.Add(1)
		task := &pipeline.SectionCharTask{
			Mod: r.prog.Module, Bind: bind, Exec: r.prog.Exec,
			Ctx: ctxOf[p.Sec.Name()], N: p.N, Seed: p.Seed,
			Model: j.Spec.Model, Env: s.env,
		}
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-gate }()
			sp := span.Child(shardSpanPrefix + name)
			v, err := s.pipe.Run(task)
			sp.End()
			if err != nil {
				commit(i, nil, fmt.Errorf("shard %s: %w", name, err))
				return
			}
			commit(i, v.(*fault.SectionProfile), nil)
		}(i, p.Sec.Name())
	}
	wg.Wait()
	if firstErr != nil {
		return composed{}, nil, plans, firstErr
	}
	// Collect the committed prefix in plan order (the full set unless
	// dispatch stopped early).
	var flat []fault.SectionProfile
	for _, p := range profiles {
		if p == nil {
			break
		}
		flat = append(flat, *p)
	}
	if len(flat) < len(plans) {
		return composed{}, flat, plans, nil
	}
	res := fault.ComposePlanned(j.Spec.Trials, plans, flat)
	return composed{res: res, input: r.prog.Spec.String(r.in)}, flat, plans, nil
}

// finishJob applies a terminal transition: persists the terminal
// record (unless parked by the crash-test hook or Close), then releases
// the running slot and tenant charge, publishes the state, and wakes
// every waiter — so "done" is only observable once it is on disk, and a
// second server on the same store never resumes a finished job. A job
// that is already terminal is left untouched — finishing is
// single-shot, so two racing paths can never double-release accounting
// or close done twice. Every state transition holds s.mu, so the check
// and the transition are atomic even though the write runs outside j.mu.
func (s *Server) finishJob(j *Job, state, errMsg string, result *Result, park bool) {
	s.mu.Lock()
	j.mu.Lock()
	finished := terminal(j.state)
	j.mu.Unlock()
	if finished {
		s.mu.Unlock()
		return
	}
	if !park {
		s.persistRecord(j, state, errMsg)
	}
	j.mu.Lock()
	if j.state == StateRunning {
		// Queued cancels drained their tenant charge in Cancel already.
		s.active--
		s.tenants[j.Spec.Tenant]--
	}
	j.state = state
	j.errMsg = errMsg
	if result != nil {
		j.result = result
	}
	close(j.done)
	j.mu.Unlock()
	if state == StateCanceled {
		s.ob.Counter("server.jobs.canceled").Inc()
	}
	s.pumpLocked()
	s.mu.Unlock()
}

// ---------------------------------------------------------------------
// Persistence and resumption

// persistRecord writes the job envelope (best effort: a store failure
// degrades resumability, never correctness).
func (s *Server) persistRecord(j *Job, state, errMsg string) {
	rec := jobRecord{ID: j.ID, Spec: j.Spec, State: state, Seq: j.Seq, Error: errMsg}
	data, err := pipeline.EncodeArtifact(kindJob, rec)
	if err == nil {
		err = s.store.Put(kindJob, j.Key, data)
	}
	if err != nil {
		s.ob.Counter("server.store.errors").Inc()
	}
}

// persistResult writes the canonical result artifact.
func (s *Server) persistResult(j *Job, r *Result) {
	data, err := pipeline.EncodeArtifact(kindJobResult, r)
	if err == nil {
		err = s.store.Put(kindJobResult, j.Key, data)
	}
	if err != nil {
		s.ob.Counter("server.store.errors").Inc()
	}
}

// loadResult fetches a persisted canonical result.
func (s *Server) loadResult(key pipeline.Key) (*Result, bool) {
	data, ok := s.store.Get(kindJobResult, key)
	if !ok {
		return nil, false
	}
	var r Result
	if err := pipeline.DecodeArtifact(kindJobResult, data, &r); err != nil {
		return nil, false
	}
	return &r, true
}

// resume re-admits every persisted non-terminal job (the state a
// crash, kill, or preemption left behind), in original admission
// order. Records whose spec no longer hashes to their key — written
// under an older analysis or section schema — are skipped: their
// identity is gone and resubmission would silently change semantics.
func (s *Server) resume() {
	var recs []jobRecord
	for _, key := range s.store.Keys(kindJob) {
		data, ok := s.store.Get(kindJob, key)
		if !ok {
			continue
		}
		var rec jobRecord
		if err := pipeline.DecodeArtifact(kindJob, data, &rec); err != nil {
			continue
		}
		if terminal(rec.State) {
			continue
		}
		r, err := resolve(rec.Spec)
		if err != nil || jobKey(r).Hex() != rec.ID {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Seq < recs[k].Seq })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		r, _ := resolve(rec.Spec)
		key := jobKey(r)
		j := newJob(rec.ID, key, rec.Spec, s.nextSeq())
		s.jobs[rec.ID] = j
		s.ob.Counter("server.jobs.resumed").Inc()
		if rej := s.admitLocked(j, rec.Spec.Tenant); rej != nil {
			// A resumed job over the restart-time quota stays failed; a
			// later resubmission re-enters admission normally.
			j.mu.Lock()
			j.state = StateFailed
			j.errMsg = rej.Error()
			close(j.done)
			j.mu.Unlock()
		}
	}
}
