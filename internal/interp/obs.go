package interp

import (
	"sync/atomic"

	"repro/internal/obs"
)

// runCounters caches registry handles so the per-run accounting is a few
// atomic adds, never a map lookup. One struct per SetObs call. The struct
// is immutable after construction: every field is written before the
// single atomic publish in SetObs and only read afterwards, so readers
// can never observe a partially-initialized value.
type runCounters struct {
	runs         *obs.Counter
	dynInstrs    *obs.Counter
	runsLegacy   *obs.Counter
	runsCompiled *obs.Counter
	profRuns     *obs.Counter
	profDyn      *obs.Counter
	profEdges    *obs.Counter
}

// obsCounters is the process-global observability hook, mirroring the
// DefaultEngine precedent: Runner configs are hashed into content-addressed
// cache keys, so an observational registry must not live on them.
//
// Concurrency contract (exercised by TestSetObsConcurrentFlip under
// -race): the pointer is swapped with a single atomic store and loaded
// exactly once per run (run() in interp.go), so a run observes either the
// old registry or the new one in full — never a torn mix — and a counter
// update can never follow a detach into freed state. Campaign workers
// flipping SetObs mid-campaign therefore only affect which registry
// accumulates a given run, never the run's result.
var obsCounters atomic.Pointer[runCounters]

// SetObs points the interpreter's run accounting at reg (nil detaches).
// Purely observational: execution results are bit-identical either way.
// Safe for concurrent use with running interpreters; both engines (legacy
// and compiled) consult the same hook.
func SetObs(reg *obs.Registry) {
	if reg == nil {
		obsCounters.Store(nil)
		return
	}
	obsCounters.Store(&runCounters{
		runs:         reg.Counter("interp.runs"),
		dynInstrs:    reg.Counter("interp.dyn_instrs"),
		runsLegacy:   reg.Counter("interp.runs.legacy"),
		runsCompiled: reg.Counter("interp.runs.compiled"),
		profRuns:     reg.Counter("interp.profiled.runs"),
		profDyn:      reg.Counter("interp.profiled.dyn_instrs"),
		profEdges:    reg.Counter("interp.profiled.edge_hits"),
	})
}

// recordRun folds one completed run into the registry. edgeBase is the
// profile's edge-hit total before the run, so reused profiles report only
// this run's traversals. skipped is the golden prefix a run resumed from a
// checkpoint did not execute: interp.dyn_instrs counts only executed
// instructions.
func (rc *runCounters) recordRun(res *Result, eng Engine, prof *Profile, edgeBase, skipped int64) {
	rc.runs.Inc()
	rc.dynInstrs.Add(res.DynInstrs - skipped)
	if eng == EngineLegacy {
		rc.runsLegacy.Inc()
	} else {
		rc.runsCompiled.Inc()
	}
	if prof != nil {
		rc.profRuns.Inc()
		rc.profDyn.Add(res.DynInstrs)
		rc.profEdges.Add(edgeTotal(prof) - edgeBase)
	}
}

// edgeTotal sums a profile's edge traversal counts (static edge tables are
// small, so the scan is cheap relative to a profiled run).
func edgeTotal(prof *Profile) int64 {
	var n int64
	for _, h := range prof.EdgeHits {
		n += h
	}
	return n
}
