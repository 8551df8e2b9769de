package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minpsid"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The edit-loop workload: a developer's edit loop over every benchmark
// with at least minSections sections. Each edit swaps two adjacent
// independent pure instructions of one function, on top of the earlier
// edits, and is answered by an incremental MeasureTask plus CampaignTask
// against a copy of the sectional store that set-up filled.

const (
	minSections        = 3
	editFaultsPerInstr = 2
	editTrials         = 150
	editCap            = 60 * time.Second
	// editSessionTime is about what one edit session takes on 2 shared
	// CPUs; a run makes one session per editSessionTime of its length, so
	// every run at one length makes the same edits however fast the
	// machine is.
	editSessionTime = 5 * time.Second
	// The measurement and campaign seeds are fixed, as a developer's
	// configuration is: the workload seed varies the edits, not the
	// fault-injection streams.
	editMeasureSeed  = 7
	editCampaignSeed = 5
)

// swapSite names an adjacent instruction pair: block Blk of function Fn,
// instructions Idx and Idx+1.
type swapSite struct{ Fn, Blk, Idx int }

// pureOp reports whether an instruction computes a value from its
// operands alone and cannot trap.
func pureOp(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpICmp, ir.OpFCmp, ir.OpIToF, ir.OpGEP, ir.OpGlobalAddr,
		ir.OpArrayLen, ir.OpSelect:
		return in.HasResult()
	}
	return false
}

func usesReg(in *ir.Instr, reg int) bool {
	for _, a := range in.Args {
		if a.Kind == ir.OperReg && a.Reg == reg {
			return true
		}
	}
	return false
}

// swapSites lists every adjacent pair of independent pure instructions
// of m; swapping such a pair preserves the program's semantics.
func swapSites(m *ir.Module) []swapSite {
	var out []swapSite
	for fi, fn := range m.Funcs {
		for bi, b := range fn.Blocks {
			for i := 0; i+1 < len(b.Instrs); i++ {
				x, y := b.Instrs[i], b.Instrs[i+1]
				if pureOp(x) && pureOp(y) && x.Dst != y.Dst && !usesReg(y, x.Dst) && !usesReg(x, y.Dst) {
					out = append(out, swapSite{fi, bi, i})
				}
			}
		}
	}
	return out
}

// applySwap performs the edit in place and renumbers the module.
func applySwap(m *ir.Module, s swapSite) {
	b := m.Funcs[s.Fn].Blocks[s.Blk]
	b.Instrs[s.Idx], b.Instrs[s.Idx+1] = b.Instrs[s.Idx+1], b.Instrs[s.Idx]
	m.Finalize()
}

// editable returns the benchmarks the edit loop covers, each with a
// freshly compiled module: at least minSections sections and one swap
// site.
func editable() ([]*benchprog.Benchmark, []*ir.Module, error) {
	var bs []*benchprog.Benchmark
	var mods []*ir.Module
	for _, b := range benchprog.Eleven() {
		m, err := freshModule(b)
		if err != nil {
			return nil, nil, err
		}
		if len(ir.PartitionSections(m).Sections) >= minSections && len(swapSites(m)) > 0 {
			bs = append(bs, b)
			mods = append(mods, m)
		}
	}
	return bs, mods, nil
}

// editGen draws the seeded edit sequence. It walks the editable sections
// of every benchmark in rounds, each round in a fresh shuffled order, so
// every complete round edits every section once whatever the seed and
// every run of whole rounds has the same mix of cheap and costly edits.
// Each edit swaps a random site of its section, preferring one that
// yields a module state not seen before: a developer's next edit is new
// code, and a revisited state would be answered wholesale from the store.
// Swapping a site keeps the pair a site, so a section never runs out.
type editGen struct {
	rng   *rand.Rand
	mods  []*ir.Module
	seen  []map[[sha256.Size]byte]bool
	units []editUnit // every editable section, in this round's order
	pos   int
}

// editUnit names one editable section of one benchmark.
type editUnit struct {
	bench int
	sec   string
}

func newEditGen(seed int64, mods []*ir.Module) *editGen {
	g := &editGen{rng: rand.New(rand.NewSource(seed)), mods: mods}
	for i, m := range mods {
		g.seen = append(g.seen, map[[sha256.Size]byte]bool{moduleText(m): true})
		var secs []string
		for name := range sitesBySection(m) {
			secs = append(secs, name)
		}
		sort.Strings(secs)
		for _, s := range secs {
			g.units = append(g.units, editUnit{i, s})
		}
	}
	g.pos = len(g.units)
	return g
}

// sitesBySection groups a module's swap sites by section name.
func sitesBySection(m *ir.Module) map[string][]swapSite {
	set := ir.PartitionSections(m)
	out := map[string][]swapSite{}
	for _, s := range swapSites(m) {
		id := m.Funcs[s.Fn].Blocks[s.Blk].Instrs[s.Idx].ID
		name := set.Sections[set.SectionOf(id)].Name()
		out[name] = append(out[name], s)
	}
	return out
}

// moduleText fingerprints a module's text. It deliberately bypasses
// pipeline.ModuleHash, whose memo would otherwise pre-warm the keying
// work the timed edit path must pay.
func moduleText(m *ir.Module) [sha256.Size]byte { return sha256.Sum256([]byte(m.String())) }

// roundDone reports whether the last edit completed a round.
func (g *editGen) roundDone() bool { return g.pos == len(g.units) }

// roundLen is the number of edits in a round.
func (g *editGen) roundLen() int { return len(g.units) }

// next applies the next edit to its module in place and returns the
// module's index and the swapped site.
func (g *editGen) next() (int, swapSite) {
	if g.pos == len(g.units) {
		g.rng.Shuffle(len(g.units), func(i, j int) { g.units[i], g.units[j] = g.units[j], g.units[i] })
		g.pos = 0
	}
	u := g.units[g.pos]
	g.pos++
	b, m := u.bench, g.mods[u.bench]
	sites := sitesBySection(m)[u.sec]
	perm := g.rng.Perm(len(sites))
	for _, k := range perm {
		applySwap(m, sites[k])
		if h := moduleText(m); !g.seen[b][h] {
			g.seen[b][h] = true
			return b, sites[k]
		}
		applySwap(m, sites[k]) // swapping the pair again restores it
	}
	// Every neighbouring state was visited already: revisit one.
	applySwap(m, sites[perm[0]])
	return b, sites[perm[0]]
}

// answer is what one edit computes: the reference measurement and the
// coverage campaign of the edited module.
type answer struct {
	meas *pipeline.MeasureOut
	cov  *pipeline.CoverageOut
}

// digest fingerprints an answer's reproducible content (the measurement
// arrays and the coverage outcome; not wall times).
func (a answer) digest() [sha256.Size]byte {
	h := sha256.New()
	x := a.meas.Meas
	for _, xs := range [][]float64{x.Cost, x.DynFrac, x.SDCProb, x.Benefit} {
		binary.Write(h, binary.LittleEndian, int64(len(xs)))
		binary.Write(h, binary.LittleEndian, xs)
	}
	fmt.Fprintf(h, "%+v", *a.cov)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// incremental runs one edit's incremental measure and campaign on p.
func incremental(p *pipeline.Pipeline, b *benchprog.Benchmark, m *ir.Module, env pipeline.Env) (answer, error) {
	ids := make(map[int]int, m.NumInstrs())
	for i := 0; i < m.NumInstrs(); i++ {
		ids[i] = i
	}
	tgt := minpsid.Target{Mod: m, Spec: b.Spec, Bind: b.Bind, Exec: b.ExecConfig()}
	mt := &pipeline.MeasureTask{Target: tgt, Input: b.Reference,
		FaultsPerInstr: editFaultsPerInstr, Seed: editMeasureSeed, Incremental: true, Env: env}
	ct := &pipeline.CampaignTask{Prot: &pipeline.ProtectOut{Orig: m, Mod: m, IDs: ids},
		Bind: b.Bind(b.Reference), Exec: b.ExecConfig(), Trials: editTrials, Seed: editCampaignSeed,
		Incremental: true, Env: env}
	mv, err := p.Run(mt)
	if err != nil {
		return answer{}, fmt.Errorf("%s measure: %w", b.Name, err)
	}
	cv, err := p.Run(ct)
	if err != nil {
		return answer{}, fmt.Errorf("%s campaign: %w", b.Name, err)
	}
	return answer{mv.(*pipeline.MeasureOut), cv.(*pipeline.CoverageOut)}, nil
}

// editRec records one edit: which benchmark, which site, and the digest
// of its answer (zero when the edit failed).
type editRec struct {
	bench  int
	site   swapSite
	ok     bool
	digest [sha256.Size]byte
}

// editPass is one measured edit loop: the seeded edit session repeated
// on fresh copies of the filled store. Every session makes the same
// edits, so every session costs the same; a loop that ran on would
// answer more and more edits from sections it had already seen.
type editPass struct {
	lat        []time.Duration
	edits      []editRec // every session's edits, one session after another
	perSession int
	benches    []*benchprog.Benchmark
	final      []*ir.Module // every module after the last edit
	failed     int64
	notes      []string
	wall       time.Duration // summed over the sessions' timed regions
	cpu        time.Duration
	rssKB      int64
	nodes      []pipeline.NodeMetric
	caches     fault.CacheStats
	metrics    *fault.Metrics
	ob         *obs.Obs
	obsStart   time.Time
	windows    []interval // each session's timed region, in ns since obsStart
	store      string     // the last session's store
	written    int64
	kindBytes  map[string]float64
}

// runEditPass fills a sectional store and runs the seeded edit session
// on copies of it; it returns the pass and the set-up time.
func runEditPass(cfg config, name string, traced bool) (*editPass, time.Duration, error) {
	p := &editPass{metrics: fault.NewMetrics()}
	if traced {
		p.ob = obs.New("edit-loop")
		p.obsStart = time.Now()
		interp.SetObs(p.ob.Reg)
		defer interp.SetObs(nil)
	}
	var pristine []*ir.Module
	var filled string
	setup, err := repeatSetup(func(rep int) error {
		if err := buildExperiments(cfg); err != nil {
			return err
		}
		var err error
		p.benches, pristine, err = editable()
		if err != nil {
			return err
		}
		filled = filepath.Join(cfg.work, fmt.Sprintf("%s-store%d", name, rep))
		pipe, err := pipeline.New(pipeline.Options{DiskDir: filled})
		if err != nil {
			return err
		}
		for i, b := range p.benches {
			env := pipeline.Env{Cache: fault.NewCache(0)}
			if _, err := incremental(pipe, b, pristine[i].Clone(), env); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if len(p.benches) == 0 {
		return nil, 0, fmt.Errorf("no benchmark has %d sections and a swap site", minSections)
	}

	cpu0, _ := selfUsage()
	sessions := max(1, int(cfg.seconds/editSessionTime))
	for s := 0; s < sessions && (s == 0 || p.wall < editCap); s++ {
		if err := p.session(cfg, filled, pristine, fmt.Sprintf("%s-session%d", name, s)); err != nil {
			return nil, 0, err
		}
	}
	cpu1, rss := selfUsage()
	p.cpu, p.rssKB = cpu1-cpu0, rss
	p.kindBytes = kindBytes(p.store)
	return p, setup, nil
}

// session copies the filled store and answers one seeded edit session
// on it: whole rounds, enough for the tail percentile on their own.
func (p *editPass) session(cfg config, filled string, pristine []*ir.Module, name string) error {
	p.store = filepath.Join(cfg.work, name)
	if err := copyDir(filled, p.store); err != nil {
		return err
	}
	mods := make([]*ir.Module, len(pristine))
	for i, m := range pristine {
		mods[i] = m.Clone()
	}
	gen := newEditGen(cfg.seed, mods)
	rounds := (samplesFor(tailQ) + gen.roundLen() - 1) / gen.roundLen()
	p.perSession = rounds * gen.roundLen()
	bytesIn := dirBytes(p.store)
	start := time.Now()
	for range p.perSession {
		bi, site := gen.next()
		rec := editRec{bench: bi, site: site}
		m := mods[bi]
		t0 := time.Now()
		sp := p.ob.Start("edit.verify")
		err := ir.Verify(m)
		sp.End()
		if err != nil {
			p.failed++
			p.edits = append(p.edits, rec)
			p.notes = append(p.notes, fmt.Sprintf("edit %+v of %s does not verify: %v", site, p.benches[bi].Name, err))
			continue
		}
		pipe, err := pipeline.New(pipeline.Options{DiskDir: p.store})
		if err != nil {
			return err
		}
		pipe.SetObs(p.ob)
		cache := fault.NewCache(0)
		a, err := incremental(pipe, p.benches[bi], m, pipeline.Env{Cache: cache, Metrics: p.metrics})
		lat := time.Since(t0)
		if err != nil {
			p.failed++
			p.edits = append(p.edits, rec)
			p.notes = append(p.notes, err.Error())
			continue
		}
		rec.ok, rec.digest = true, a.digest()
		p.edits = append(p.edits, rec)
		p.lat = append(p.lat, lat)
		p.nodes = append(p.nodes, pipe.Nodes()...)
		cs := cache.Stats()
		p.caches.GoldenHits += cs.GoldenHits
		p.caches.GoldenMisses += cs.GoldenMisses
		p.caches.CampaignHits += cs.CampaignHits
		p.caches.CampaignMisses += cs.CampaignMisses
	}
	wall := time.Since(start)
	p.wall += wall
	if p.ob != nil {
		lo := start.Sub(p.obsStart).Nanoseconds()
		p.windows = append(p.windows, interval{lo, lo + wall.Nanoseconds()})
	}
	p.written += dirBytes(p.store) - bytesIn
	p.final = mods
	return nil
}

// checkEdits replays the first session's edits on freshly compiled
// modules and compares every answer with a cold incremental run of the
// same edited module on a fresh store (once per distinct module). Every
// later session must repeat the first one's edits and answers exactly.
func checkEdits(cfg config, p *editPass, o *outcome) {
	bs, mods, err := editable()
	if err != nil {
		o.fail("edit replay: %v", err)
		return
	}
	gen := newEditGen(cfg.seed, mods)
	cold := map[[sha256.Size]byte][sha256.Size]byte{}
	for i, rec := range p.edits[:p.perSession] {
		b, site := gen.next()
		if b != rec.bench || site != rec.site {
			o.fail("edit %d: replay drew %s %+v, the run drew %s %+v", i, bs[b].Name, site, bs[rec.bench].Name, rec.site)
			return
		}
		if !rec.ok {
			continue
		}
		key := moduleText(mods[b])
		want, ok := cold[key]
		if !ok {
			a, err := incremental(pipeline.NewMem(0), bs[b], mods[b], pipeline.Env{Cache: fault.NewCache(0)})
			if err != nil {
				o.fail("cold check of edit %d: %v", i, err)
				continue
			}
			want = a.digest()
			cold[key] = want
		}
		if rec.digest != want {
			o.fail("edit %d (%s %+v): incremental answer differs from a cold run", i, bs[b].Name, site)
		}
	}
	for i := p.perSession; i < len(p.edits); i++ {
		if p.edits[i] != p.edits[i%p.perSession] {
			o.fail("edit %d of session %d differs from the same edit of the first session", i%p.perSession, i/p.perSession)
		}
	}
}

func editLoop(cfg config) (*outcome, error) {
	p, setup, err := runEditPass(cfg, "untraced", false)
	if err != nil {
		return nil, err
	}
	o := &outcome{layers: map[string]float64{}, setup: setup, lat: p.lat, wall: p.wall, rssKB: p.rssKB,
		attempt: int64(len(p.lat)) + p.failed, failed: p.failed, notes: p.notes}
	checkEdits(cfg, p, o)
	l := ms(o.lat)
	p90, _, _ := percentile(l, tailQ)
	o.named = []namedValue{
		{"edit_p50_ms", "ms", median(l)},
		{"edit_p90_ms", "ms", p90},
		{"setup_s", "s", setup.Seconds()},
	}
	if !cfg.trace {
		return o, nil
	}
	t, _, err := runEditPass(cfg, "traced", true)
	if err != nil {
		return nil, err
	}
	o.layers["trace.overhead_ms"] = median(ms(t.lat)) - median(l)
	return o, editLayers(cfg, t, o.layers)
}

// editLayers fills the per-layer metrics of a traced edit loop.
func editLayers(cfg config, p *editPass, layers map[string]float64) error {
	if err := commonProbes(layers); err != nil {
		return err
	}
	// The static layers are probed on copies of the edited modules, so no
	// per-module analysis memo from the pass itself is reused.
	var mods []*ir.Module
	for _, m := range p.final {
		mods = append(mods, m.Clone())
	}
	staticProbes(mods, layers)

	var runs, disk, secRuns, secAll, bytesRead float64
	for _, n := range p.nodes {
		sectional := strings.HasPrefix(n.Kind, "sec")
		switch n.Source {
		case pipeline.SourceRun:
			runs++
			if sectional {
				secRuns++
				secAll++
			}
		case pipeline.SourceDisk:
			disk++
			bytesRead += p.kindBytes[n.Kind]
			if sectional {
				secAll++
			}
		}
	}
	layers["pipeline.tasks_run"] = runs
	layers["pipeline.disk_hit_frac"] = frac(disk, disk+runs)
	layers["pipeline.sections_rerun_frac"] = frac(secRuns, secAll)
	layers["pipeline.bytes_read"] = bytesRead
	layers["pipeline.bytes_written"] = float64(p.written)

	var trials, pruned, busy, golden float64
	for _, s := range p.metrics.Snapshots() {
		trials += float64(s.Trials)
		pruned += float64(s.Pruned)
		busy += float64(s.Busy)
		golden += float64(s.GoldenRuns)
	}
	layers["fault.trials_run"] = trials
	layers["fault.ns_per_trial"] = frac(busy, trials)
	layers["fault.util_frac"] = frac(busy, float64(p.wall)*float64(nproc()))
	layers["analysis.pruned_frac"] = frac(pruned, pruned+trials)
	layers["interp.golden_runs"] = golden
	layers["interp.dyn_instrs"] = float64(p.ob.Reg.Counter("interp.dyn_instrs").Value())
	cs := p.caches
	layers["fault.golden_cache_hit_frac"] = frac(float64(cs.GoldenHits), float64(cs.GoldenHits+cs.GoldenMisses))
	layers["fault.campaign_cache_hit_frac"] = frac(float64(cs.CampaignHits), float64(cs.CampaignHits+cs.CampaignMisses))

	ts := p.ob.Trace.Snapshot()
	layers["fault.replay_s"] = replayTime(ts).Seconds()
	var cov int64
	for _, w := range p.windows {
		cov += covered(layerIntervals(ts, 0), w.start, w.end)
	}
	layers["trace.unattributed_frac"] = 1 - frac(float64(cov), float64(p.wall))
	layers["proc.cpu_s"] = p.cpu.Seconds()
	layers["proc.cpu_util_frac"] = frac(float64(p.cpu), float64(p.wall)*float64(nproc()))
	return storeProbes(p.store, filepath.Join(cfg.work, "probe-store"), layers)
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
}
