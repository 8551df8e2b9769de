package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/pipeline"
)

// quickOptions returns a light invocation writing under dir (or nowhere
// when dir is empty).
func quickOptions(exps, benches, dir string) options {
	o := options{
		exps:    exps,
		profile: "quick",
		benches: benches,
		seed:    1,
		out:     new(bytes.Buffer),
	}
	if dir != "" {
		o.resultsDir = dir
		o.cacheDir = filepath.Join(dir, "cache")
	}
	return o
}

func TestRunSelectedExperiments(t *testing.T) {
	// Light experiments only; the heavy ones are covered by the harness
	// tests and the root benchmark suite.
	dir := t.TempDir()
	o := quickOptions("table1,fig5", "", dir)
	o.metrics = true
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range []string{"table1.json", "fig5.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing report %s: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "cache")); err != nil {
		t.Errorf("missing artifact cache dir: %v", err)
	}
}

// TestRunColdThenWarmIsByteIdentical is the acceptance check for the
// artifact store: a second invocation over the same results directory
// must print byte-identical tables while re-running zero fault-injecting
// task nodes (everything heavy comes back from disk).
func TestRunColdThenWarmIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cold/warm comparison runs real campaigns")
	}
	dir := t.TempDir()

	cold := quickOptions("fig2,table2", "pathfinder", dir)
	if err := run(cold); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	warm := quickOptions("fig2,table2", "pathfinder", dir)
	if err := run(warm); err != nil {
		t.Fatalf("warm run: %v", err)
	}

	coldOut := cold.out.(*bytes.Buffer).Bytes()
	warmOut := warm.out.(*bytes.Buffer).Bytes()
	if !bytes.Equal(coldOut, warmOut) {
		t.Errorf("cold and warm output differ:\n--- cold\n%s\n--- warm\n%s", coldOut, warmOut)
	}

	// The warm run's reports must show no run-sourced fault work.
	for _, f := range []string{"fig2.json", "table2.json"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("read report: %v", err)
		}
		var rep pipeline.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("parse report %s: %v", f, err)
		}
		for _, kind := range []string{"measure", "search", "campaign", "inputs"} {
			if n := rep.NodeSummary[kind][pipeline.SourceRun]; n != 0 {
				t.Errorf("%s: warm run executed %d %s nodes, want 0", f, n, kind)
			}
		}
	}
}

func TestRunWithoutResultsDir(t *testing.T) {
	if err := run(quickOptions("table1", "", "")); err != nil {
		t.Fatalf("run without results dir: %v", err)
	}
}

// TestRunBenchSubsetKeepsRegistry selects a -bench subset: building it
// must not write into the benchmark registry, so every name resolves
// and Table 1 still lists each of the 11 benchmarks exactly once.
func TestRunBenchSubsetKeepsRegistry(t *testing.T) {
	var names []string
	for _, b := range benchprog.Eleven() {
		names = append(names, b.Name)
	}
	o := quickOptions("table1", "knn,pathfinder", "")
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	rows := map[string]int{}
	for _, line := range strings.Split(o.out.(*bytes.Buffer).String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]]++
		}
	}
	for _, name := range names {
		if rows[name] != 1 {
			t.Errorf("Table 1 lists %s %d times, want once", name, rows[name])
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := run(quickOptions("figX", "", "")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run(quickOptions("table1", "nope", "")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
