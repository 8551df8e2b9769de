package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// The server-mixed workload: an in-process campaign server on a fresh
// store, served on a loopback listener and driven through server.Client
// by a closed loop of serverClients clients, each submitting the next
// spec only after the previous result arrived.

const (
	serverClients = 2
	// serverBlocks is the least number of spec blocks one pass serves:
	// 234 jobs keep the median's rank error small next to the spread of
	// job costs.
	serverBlocks = 2
	// serverBlockTime is about what one block takes on 2 shared CPUs;
	// a run serves one block per serverBlockTime of its length.
	serverBlockTime = 5 * time.Second
	// serverCap bounds one pass even when the machine is too slow to
	// reach the minimum sample count.
	serverCap = 60 * time.Second
	// checkSample is how many distinct jobs are re-run directly to check
	// the server's result bytes.
	checkSample = 8
)

// specModels are the fault models of the mix.
var specModels = []string{"bitflip", "bitflip2", "byteflip", "stuckat0"}

// trialLevels are the trial budgets of one benchmark's eight jobs in a
// block, evenly spaced over 100-600 and assigned by position, so the
// seed cannot shift heavy budgets onto heavy jobs.
var trialLevels = []int{100, 171, 243, 314, 386, 457, 529, 600}

// specGen draws the seeded spec stream in blocks. A block holds one job
// for every benchmark × fault model × input combination (88), in a
// seeded order, with a repeat of a uniformly drawn earlier job after
// every third (29), which joins that job instead of running a campaign.
// Every block therefore has the same benchmarks, models, inputs and
// trial budgets whatever the seed; the seed decides the order, campaign
// seeds, random inputs and which jobs repeat.
type specGen struct {
	rng   *rand.Rand
	admit func(bench string, inputSeed int64) bool
	block []server.JobSpec
	fresh []server.JobSpec
}

// newSpecGen builds a generator; admit accepts or rejects a random
// input (by benchmark and input seed), and a rejected draw is redrawn.
func newSpecGen(seed int64, admit func(bench string, inputSeed int64) bool) *specGen {
	return &specGen{rng: rand.New(rand.NewSource(seed)), admit: admit}
}

// blockDone reports whether the last spec drawn completed a block.
func (g *specGen) blockDone() bool { return len(g.block) == 0 }

// next returns the next spec of the stream.
func (g *specGen) next() server.JobSpec {
	if len(g.block) == 0 {
		g.fillBlock()
	}
	s := g.block[0]
	g.block = g.block[1:]
	return s
}

func (g *specGen) fillBlock() {
	var fresh []server.JobSpec
	for bi, b := range benchprog.Eleven() {
		k := bi
		for _, m := range specModels {
			for _, in := range []string{"ref", "random"} {
				s := server.JobSpec{Bench: b.Name, Model: m, Input: in,
					Trials: trialLevels[k%len(trialLevels)], Seed: 1 + g.rng.Int63n(1<<31)}
				k++
				if in == "random" {
					s.InputSeed = g.randomInput(b.Name)
				}
				fresh = append(fresh, s)
			}
		}
	}
	g.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	for i, s := range fresh {
		g.fresh = append(g.fresh, s)
		g.block = append(g.block, s)
		if i%3 == 2 {
			g.block = append(g.block, g.fresh[g.rng.Intn(len(g.fresh))])
		}
	}
}

// randomInput draws an admissible input seed for a benchmark.
func (g *specGen) randomInput(bench string) int64 {
	for {
		seed := 1 + g.rng.Int63n(1<<31)
		if g.admit == nil || g.admit(bench, seed) {
			return seed
		}
	}
}

// admitNearReference accepts a random input whose golden run completes
// within a factor of 1.5 of the reference input's dynamic instruction
// count, so a seed cannot swing the mix toward tiny or huge problems.
func admitNearReference() func(bench string, inputSeed int64) bool {
	ref := map[string]int64{}
	return func(bench string, inputSeed int64) bool {
		b, ok := benchprog.ByName(bench)
		if !ok {
			return false
		}
		m, err := b.Module()
		if err != nil {
			return false
		}
		if _, ok := ref[bench]; !ok {
			g, err := fault.RunGolden(m, b.Bind(b.Reference), b.ExecConfig())
			if err != nil {
				return false
			}
			ref[bench] = g.DynInstrs
		}
		in := b.Spec.Random(rand.New(rand.NewSource(inputSeed)))
		g, err := fault.RunGolden(m, b.Bind(in), b.ExecConfig())
		return err == nil && 3*g.DynInstrs >= 2*ref[bench] && 2*g.DynInstrs <= 3*ref[bench]
	}
}

// job is one completed client operation.
type job struct {
	spec      server.JobSpec
	id        string
	deduped   bool
	body      []byte
	lat       time.Duration
	submitRTT time.Duration
	http      []interval // client HTTP request spans, ns since the trace start
}

// serverPass is one served, measured closed loop.
type serverPass struct {
	jobs      []job
	failed    int64
	notes     []string
	wall      time.Duration
	cpu       time.Duration
	rssKB     int64
	ob        *obs.Obs
	obsStart  time.Time
	runStart  time.Time
	stats     pipeline.StoreStats
	storeDir  string
	storeSize int64
}

// startServer builds the server binary users deploy (a cached rebuild)
// and starts an in-process server on a fresh store behind a loopback
// listener. stop shuts the listener down.
func startServer(cfg config, dir string, ob *obs.Obs) (*server.Server, *server.Client, func(), error) {
	cmd := exec.Command("go", "build", "-o", filepath.Join(cfg.root, ".bench_build", "bin", "sdcfi"), "./cmd/sdcfi")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, nil, nil, fmt.Errorf("go build ./cmd/sdcfi: %v\n%s", err, out)
	}
	s, err := server.New(server.Options{StoreDir: dir, Obs: ob})
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
		<-served
	}
	cl := server.NewClient("http://" + ln.Addr().String())
	if _, err := cl.Jobs(); err != nil {
		stop()
		return nil, nil, nil, err
	}
	return s, cl, stop, nil
}

// runServerPass serves one closed loop on a fresh store. Setup time is
// returned separately (the median of setupReps starts).
func runServerPass(cfg config, name string, traced bool) (*serverPass, time.Duration, error) {
	// The spec stream is generated before set-up: drawing admissible
	// random inputs is the benchmark's work, not the program's. The run
	// length fixes the number of blocks, so every run at one length
	// serves the same jobs however fast the machine is.
	gen := newSpecGen(cfg.seed, admitNearReference())
	blocks := max(serverBlocks, int(cfg.seconds/serverBlockTime))
	var specs []server.JobSpec
	for i := 0; i < blocks; i++ {
		specs = append(specs, gen.next())
		for !gen.blockDone() {
			specs = append(specs, gen.next())
		}
	}
	blockLen := len(specs) / blocks
	p := &serverPass{ob: obs.New("sdcfid")}
	p.obsStart = time.Now()
	if traced {
		interp.SetObs(p.ob.Reg)
		defer interp.SetObs(nil)
	}
	var (
		s    *server.Server
		cl   *server.Client
		stop func()
	)
	setup, err := repeatSetup(func(rep int) error {
		if stop != nil {
			stop()
			removeStore(p)
		}
		p.storeDir = filepath.Join(cfg.work, fmt.Sprintf("%s-store%d", name, rep))
		var err error
		s, cl, stop, err = startServer(cfg, p.storeDir, p.ob)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	defer stop()

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	cpu0, _ := selfUsage()
	p.runStart = time.Now()
	// Clients serve every planned block, or stop at a block boundary once
	// the run reaches serverCap.
	issued := 0
	take := func() (server.JobSpec, bool) {
		mu.Lock()
		defer mu.Unlock()
		if issued == len(specs) || (issued%blockLen == 0 && issued > 0 && time.Since(p.runStart) >= serverCap) {
			return server.JobSpec{}, false
		}
		spec := specs[issued]
		issued++
		return spec, true
	}
	rel := func(t time.Time) int64 { return t.Sub(p.obsStart).Nanoseconds() }
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				spec, ok := take()
				if !ok {
					return
				}
				spec.Tenant = tenant
				j, err := runJob(cl, spec, rel)
				mu.Lock()
				if err != nil {
					p.failed++
					p.notes = append(p.notes, err.Error())
				} else {
					p.jobs = append(p.jobs, j)
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("client%d", c))
	}
	wg.Wait()
	p.wall = time.Since(p.runStart)
	cpu1, rss := selfUsage()
	p.cpu, p.rssKB = cpu1-cpu0, rss

	// Every job the clients saw is terminal, but a job's done signal is
	// published before its record is persisted. finishJob persists under
	// the scheduler lock, so once a Jobs() snapshot (which takes that lock)
	// shows every job terminal, no job is still writing into the store.
	for !allTerminal(s.Jobs()) {
		time.Sleep(5 * time.Millisecond)
	}
	// Taking the lock once more waits out the last persist.
	s.Jobs()
	p.stats = s.StoreStats()
	p.storeSize = dirBytes(p.storeDir)
	return p, setup, nil
}

func allTerminal(js []server.JobStatus) bool {
	for _, j := range js {
		switch j.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
		default:
			return false
		}
	}
	return true
}

// runJob submits one spec, waits for it, and fetches its result.
func runJob(cl *server.Client, spec server.JobSpec, rel func(time.Time) int64) (job, error) {
	j := job{spec: spec}
	t0 := time.Now()
	sub, err := cl.Submit(spec)
	t1 := time.Now()
	j.submitRTT = t1.Sub(t0)
	j.http = append(j.http, interval{rel(t0), rel(t1)})
	if err != nil {
		return j, fmt.Errorf("submit %+v: %w", spec, err)
	}
	j.id, j.deduped = sub.ID, sub.Deduped
	st, err := cl.Wait(sub.ID)
	if err != nil {
		return j, fmt.Errorf("wait %s: %w", sub.ID, err)
	}
	if st.State != server.StateDone {
		return j, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	t2 := time.Now()
	j.body, err = cl.Result(sub.ID)
	j.http = append(j.http, interval{rel(t2), rel(time.Now())})
	if err != nil {
		return j, fmt.Errorf("result %s: %w", sub.ID, err)
	}
	j.lat = time.Since(t0)
	return j, nil
}

// directResult runs a spec's campaign directly through core, with no
// server, store or scheduler, and renders the canonical result document.
func directResult(spec server.JobSpec) ([]byte, error) {
	prog, err := core.FromBenchmark(spec.Bench)
	if err != nil {
		return nil, err
	}
	in := prog.Reference
	if spec.Input == "random" {
		in = prog.RandomInput(rand.New(rand.NewSource(spec.InputSeed)))
	}
	model, ok := fault.ModelByName(pipeline.NormModel(spec.Model))
	if !ok {
		return nil, fmt.Errorf("unknown model %q", spec.Model)
	}
	res, profiles, err := prog.InjectionCampaignSectional(in, spec.Trials, spec.Seed, model, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return server.EncodeResult(server.BuildResult(spec.Bench, prog.Spec.String(in), spec.Seed, spec.Model, res, profiles)), nil
}

// checkServer compares every dedup join with the job it joined, and a
// seeded sample of distinct jobs with a direct campaign.
func checkServer(cfg config, p *serverPass, o *outcome) {
	byID := map[string]*job{}
	var ids []string
	for i := range p.jobs {
		j := &p.jobs[i]
		first, ok := byID[j.id]
		if !ok {
			byID[j.id] = j
			ids = append(ids, j.id)
			continue
		}
		if string(first.body) != string(j.body) {
			o.fail("job %s: joined result differs from the first result", j.id)
		}
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	for _, id := range ids[:min(checkSample, len(ids))] {
		j := byID[id]
		want, err := directResult(j.spec)
		if err != nil {
			o.fail("direct campaign for %s: %v", id, err)
			continue
		}
		if string(want) != string(j.body) {
			o.fail("job %s (%s %s %s trials=%d): server result differs from the direct campaign",
				id, j.spec.Bench, j.spec.Input, j.spec.Model, j.spec.Trials)
		}
	}
}

// removeStore deletes a pass's store once every job is terminal; a
// failure is reported but does not fail the run.
func removeStore(p *serverPass) {
	if err := os.RemoveAll(p.storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: store cleanup:", err)
	}
}

func serverMixed(cfg config) (*outcome, error) {
	p, setup, err := runServerPass(cfg, "untraced", false)
	if err != nil {
		return nil, err
	}
	o := &outcome{layers: map[string]float64{}, setup: setup, wall: p.wall, rssKB: p.rssKB}
	o.attempt = int64(len(p.jobs)) + p.failed
	o.failed = p.failed
	o.notes = p.notes
	var deduped int
	for _, j := range p.jobs {
		o.lat = append(o.lat, j.lat)
		if j.deduped {
			deduped++
		}
	}
	checkServer(cfg, p, o)
	removeStore(p)

	l := ms(o.lat)
	p90, _, _ := percentile(l, tailQ)
	o.named = []namedValue{
		{"job_p50_ms", "ms", median(l)},
		{"job_p90_ms", "ms", p90},
		{"jobs_per_s", "1/s", frac(float64(len(l)), p.wall.Seconds())},
		{"setup_s", "s", setup.Seconds()},
	}
	if !cfg.trace {
		return o, nil
	}

	t, _, err := runServerPass(cfg, "traced", true)
	if err != nil {
		return nil, err
	}
	defer removeStore(t)
	var tl []time.Duration
	for _, j := range t.jobs {
		tl = append(tl, j.lat)
	}
	o.layers["trace.overhead_ms"] = median(ms(tl)) - median(l)
	return o, serverLayers(cfg, t, o.layers)
}

// serverLayers fills the per-layer metrics of a traced pass from the
// server's registry and span tree, its store counters, the client spans
// and the isolated probes.
func serverLayers(cfg config, p *serverPass, layers map[string]float64) error {
	snap := p.ob.Reg.Snapshot()
	c := snap.Counters
	trials := float64(c["fault.trials"])
	batch := float64(snap.Histograms["fault.batch_wall_ns"].Sum)
	layers["fault.trials_run"] = trials
	layers["fault.ns_per_trial"] = frac(batch, trials)
	layers["fault.util_frac"] = frac(batch, float64(p.wall)*float64(runtime.GOMAXPROCS(0)))
	layers["interp.dyn_instrs"] = float64(c["interp.dyn_instrs"])
	layers["interp.golden_runs"] = float64(c["interp.profiled.runs"])

	st := p.stats
	lookups := float64(st.DiskHits + st.MemHits + st.Runs)
	layers["server.shards_run"] = float64(st.Runs)
	layers["server.shard_disk_hit_frac"] = frac(float64(st.DiskHits), lookups)
	layers["pipeline.tasks_run"] = float64(st.Runs)
	layers["pipeline.disk_hit_frac"] = frac(float64(st.DiskHits), lookups)
	layers["pipeline.bytes_written"] = float64(p.storeSize)
	layers["pipeline.bytes_read"] = float64(st.DiskHits) * kindBytes(p.storeDir)["secchar"]

	// Job spans: queue wait runs from the Submit request to the job's
	// start (HTTP in, admission and queueing); execution is the span.
	ts := p.ob.Trace.Snapshot()
	spans := map[string]*obs.SpanSnapshot{}
	for _, s := range ts.Spans {
		if strings.HasPrefix(s.Name, "job:") {
			spans[strings.TrimPrefix(s.Name, "job:")] = s
		}
	}
	var wait, execMs, rtt []float64
	var ivs []interval
	var deduped float64
	for _, j := range p.jobs {
		rtt = append(rtt, msOf(j.submitRTT))
		ivs = append(ivs, j.http...)
		if j.deduped {
			deduped++
			continue
		}
		if s, ok := spans[j.id[:16]]; ok {
			wait = append(wait, float64(s.StartNS-j.http[0].start)/1e6)
			execMs = append(execMs, float64(s.DurNS)/1e6)
		}
	}
	layers["server.queue_wait_ms"] = median(wait)
	layers["server.exec_ms"] = median(execMs)
	layers["server.http_rtt_ms"] = median(rtt)
	layers["server.dedup_join_frac"] = frac(deduped, float64(len(p.jobs)))

	ivs = append(ivs, layerIntervals(ts, 0)...)
	lo := p.runStart.Sub(p.obsStart).Nanoseconds()
	hi := lo + p.wall.Nanoseconds()
	layers["trace.unattributed_frac"] = 1 - frac(float64(covered(ivs, lo, hi)), float64(hi-lo))
	layers["proc.cpu_s"] = p.cpu.Seconds()
	layers["proc.cpu_util_frac"] = frac(float64(p.cpu), float64(p.wall)*float64(nproc()))

	if err := storeProbes(p.storeDir, filepath.Join(cfg.work, "probe-store"), layers); err != nil {
		return err
	}
	return commonProbes(layers)
}
