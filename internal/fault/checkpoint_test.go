package fault

import (
	"reflect"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/interp"
)

// TestCheckpointCampaignTables pins golden checkpoints at the campaign
// level: the Run, PerInstruction and RunSectional tables are identical
// with checkpoints on and off, and the campaigns with checkpoints on
// really resumed trials from them (so the comparison is not vacuous).
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
	for _, b := range benches {
		m, bind, cfg := b.MustModule(), b.Bind(b.Reference), b.ExecConfig()
		g, err := RunGolden(m, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]tables
		var ckpt [2]CheckpointStats
		for i, off := range []bool{false, true} {
			pm := NewMetrics().Phase("t")
			c := &Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: g, Workers: 2, Metrics: pm, noCheckpoints: off}
			got[i].Run = c.Run(120, 7)
			got[i].PerInstr = c.PerInstruction(2, 7)
			got[i].Sec, got[i].SecProfs = c.RunSectional(120, 7)
			ckpt[i] = pm.Snapshot().Checkpoint
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%s: campaign tables differ with checkpoints on and off:\non:  %+v\noff: %+v", b.Name, got[0], got[1])
		}
		if on := ckpt[0]; on.Captures == 0 || on.Restores == 0 || on.SkippedInstrs == 0 {
			t.Fatalf("%s: checkpoints on but none used: %+v", b.Name, on)
		}
		if !reflect.DeepEqual(ckpt[1], CheckpointStats{}) {
			t.Fatalf("%s: checkpoints off but counted: %+v", b.Name, ckpt[1])
		}
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
