package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/interp"
)

// TestCheckpointCampaignTables pins golden checkpoints at the campaign
// level: the Run, PerInstruction and RunSectional tables are identical
// with checkpoints on and off, and the campaigns with checkpoints on
// really resumed trials from them (so the comparison is not vacuous).
// It also pins the instruction accounting: with checkpoints on, the
// instructions trials executed plus those restores and convergence
// skipped are the instructions of the same trials run from the start.
func TestCheckpointCampaignTables(t *testing.T) {
	benches := benchprog.Eleven()
	if testing.Short() {
		benches = benches[:2]
	}
	type tables struct {
		Run      CampaignResult
		PerInstr []InstrStats
		Sec      CampaignResult
		SecProfs []SectionProfile
	}
	var converged int64
	for _, b := range benches {
		m, bind, cfg := b.MustModule(), b.Bind(b.Reference), b.ExecConfig()
		g, err := RunGolden(m, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]tables
		var snap [2]PhaseSnapshot
		var rendered strings.Builder
		for i, off := range []bool{false, true} {
			mt := NewMetrics()
			pm := mt.Phase("t")
			c := &Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: g, Workers: 2, Metrics: pm, noCheckpoints: off}
			got[i].Run = c.Run(120, 7)
			got[i].PerInstr = c.PerInstruction(2, 7)
			got[i].Sec, got[i].SecProfs = c.RunSectional(120, 7)
			snap[i] = pm.Snapshot()
			if !off {
				if err := mt.Render(&rendered); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%s: campaign tables differ with checkpoints on and off:\non:  %+v\noff: %+v", b.Name, got[0], got[1])
		}
		on, off := snap[0], snap[1]
		if ck := on.Checkpoint; ck.Captures == 0 || ck.Restores == 0 || ck.SkippedInstrs == 0 {
			t.Fatalf("%s: checkpoints on but none used: %+v", b.Name, ck)
		}
		if !reflect.DeepEqual(off.Checkpoint, CheckpointStats{}) {
			t.Fatalf("%s: checkpoints off but counted: %+v", b.Name, off.Checkpoint)
		}
		var executedOn, executedOff int64
		for o := range NumOutcomes {
			if on.Instrs[o] > off.Instrs[o] {
				t.Errorf("%s: %s trials executed %d instructions resumed, %d from the start", b.Name, o, on.Instrs[o], off.Instrs[o])
			}
			executedOn += on.Instrs[o]
			executedOff += off.Instrs[o]
		}
		if skipped := on.Checkpoint.SkippedInstrs + on.Checkpoint.ConvergedInstrs; executedOn+skipped != executedOff || executedOff == 0 {
			t.Errorf("%s: %d executed + %d skipped instructions resumed, %d from the start", b.Name, executedOn, skipped, executedOff)
		}
		converged += on.Checkpoint.Converged
		if want := fmt.Sprintf("%d converged, %d instrs converged", on.Checkpoint.Converged, on.Checkpoint.ConvergedInstrs); !strings.Contains(rendered.String(), want) {
			t.Errorf("%s: -metrics output lacks %q:\n%s", b.Name, want, rendered.String())
		}
		if on.Pruned > 0 && !strings.Contains(rendered.String(), "pruned by proof (t): ") {
			t.Errorf("%s: -metrics output lacks the pruned-by-proof line:\n%s", b.Name, rendered.String())
		}
	}
	if converged == 0 {
		t.Error("no trial converged to a golden checkpoint")
	}
}

// TestCheckpointFallbacks pins the batches that run every trial from the
// start, with their reasons: small batches, legacy-engine configurations
// and spawning modules.
func TestCheckpointFallbacks(t *testing.T) {
	b, _ := benchprog.ByName("pathfinder")
	mt, _ := benchprog.ByName("fft-mt")
	legacy := b.ExecConfig()
	legacy.Engine = interp.EngineLegacy
	cases := []struct {
		name   string
		b      *benchprog.Benchmark
		cfg    interp.Config
		trials int
		reason string
	}{
		{"small", b, b.ExecConfig(), minCheckpointBatch - 1, "small_batch"},
		{"legacy", b, legacy, 40, "legacy"},
		{"spawn", mt, mt.ExecConfig(), 40, "spawn"},
	}
	for _, tc := range cases {
		m, bind := tc.b.MustModule(), tc.b.Bind(tc.b.Reference)
		g, err := RunGolden(m, bind, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm := NewMetrics().Phase("t")
		c := &Campaign{Mod: m, Bind: bind, Cfg: tc.cfg, Golden: g, Workers: 1, Metrics: pm, Triage: TriageOff}
		c.Run(tc.trials, 3)
		want := CheckpointStats{Fallbacks: map[string]int64{tc.reason: 1}}
		if got := pm.Snapshot().Checkpoint; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: checkpoint stats %+v, want %+v", tc.name, got, want)
		}
	}
}
