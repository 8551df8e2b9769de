// Command perfbench is the repository's end-to-end benchmark. It drives
// the three paths a user sees — regenerating the paper's Fig. 2 and
// Fig. 8 from an empty artifact store, campaigns served by the
// campaign server, and one-function edits answered incrementally — and
// reports end-to-end metrics (tracing off) or per-layer metrics (a
// separate traced run). See README.md for every workload and metric.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 5 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The process exits non-zero when any output fails its correctness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	root    string        // checkout root (the program's module)
	work    string        // private scratch directory of this run
	seed    int64         // workload seed: every generated input derives from it
	seconds time.Duration // minimum measured time
	trace   bool          // per-layer run instead of end-to-end
	update  bool          // rewrite the expected paper output instead of checking it
}

// defaultSeed is the seed whose paper output is pinned in testdata.
const defaultSeed = 1

// outcome is what one workload run measured.
type outcome struct {
	setup   time.Duration   // set-up time (median of repeated set-ups where repeatable)
	lat     []time.Duration // per-operation latency inside the timed region
	wall    time.Duration   // timed region wall time
	rssKB   int64           // peak resident set
	attempt int64           // operations attempted
	failed  int64           // operations failed, rejected or output-mismatched
	notes   []string        // correctness failures, printed to stderr
	named   []namedValue    // the issue's per-workload metric names, for the human-readable lines
	layers  map[string]float64
}

type namedValue struct {
	name, unit string
	value      float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(config) (*outcome, error){
	"paper-cold":   paperCold,
	"server-mixed": serverMixed,
	"edit-loop":    editLoop,
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root")
		workload = flag.String("workload", "", "workload: paper-cold, server-mixed or edit-loop")
		seed     = flag.Int64("seed", defaultSeed, "workload seed")
		seconds  = flag.Float64("seconds", 5, "minimum measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		update   = flag.Bool("update-expected", false, "rewrite the pinned paper output at the default seed")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	if _, err := os.Stat(filepath.Join(absRoot, "go.mod")); err != nil {
		fatalf("%s is not a checkout of the program: %v", absRoot, err)
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	cfg := config{root: absRoot, work: work, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, update: *update}

	out, err := run(cfg)
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cleanup %s: %v\n", work, rmErr)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", n)
	}
	report(os.Stdout, *workload, cfg, out)
	if out.failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(o *outcome) map[string]metric {
	l := ms(o.lat)
	p90, _, _ := percentile(l, tailQ)
	return map[string]metric{
		"setup_s":     {o.setup.Seconds(), "s"},
		"p50_ms":      {median(l), "ms"},
		"p90_ms":      {p90, "ms"},
		"ops_per_s":   {frac(float64(len(o.lat)), o.wall.Seconds()), "1/s"},
		"peak_rss_mb": {float64(o.rssKB) / 1024, "MB"},
	}
}

// report prints the human-readable lines, the environment-stamped row,
// and the final result line.
func report(w *os.File, workload string, cfg config, o *outcome) {
	var metrics map[string]metric
	if cfg.trace {
		metrics = make(map[string]metric, len(layerUnits))
		for name, unit := range layerUnits {
			metrics[name] = metric{o.layers[name], unit}
		}
	} else {
		metrics = endToEnd(o)
	}

	_, beyond, ok := percentile(ms(o.lat), tailQ)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v samples=%d beyond_p90=%d (ten-beyond rule met: %v)\n",
		workload, cfg.seed, cfg.trace, len(o.lat), beyond, ok)
	if !cfg.trace {
		for _, n := range o.named {
			fmt.Fprintf(w, "  %-14s %12.4f %s\n", n.name, n.value, n.unit)
		}
		fmt.Fprintf(w, "  %-14s %12.4f %s (%d/%d)\n", "failed_frac",
			frac(float64(o.failed), float64(o.attempt)), "frac", o.failed, o.attempt)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}

	row := map[string]any{"workload": workload, "env": environment(cfg), "metrics": metrics,
		"samples": len(o.lat), "failed_frac": frac(float64(o.failed), float64(o.attempt))}
	rowJSON, _ := json.Marshal(row)
	fmt.Fprintf(w, "row %s\n", rowJSON)

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, max(o.attempt, 1), o.failed, metrics}
	last, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", last)
}

// selfUsage returns this process's CPU time and peak RSS (KB).
func selfUsage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rusageCPU(&ru), ru.Maxrss
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// nproc is the CPU count the process may use.
func nproc() int { return runtime.NumCPU() }
