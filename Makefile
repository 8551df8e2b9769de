GO ?= go

.PHONY: all build vet lint test race check bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific determinism lints (tools/sdclint): map iteration feeding
# content keys, wall-clock/rand in key derivation, and the obs
# nil-receiver contract. Stdlib-only; CI runs it in the static-analysis
# job and additionally asserts it FAILS on the seeded fixture tree.
lint: vet
	test -z "$$(gofmt -l .)"
	$(GO) run ./tools/sdclint ./internal ./cmd ./tools

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages: the per-snapshot memo on
# ir.Module and the analyses built through it, the fault campaign engine
# (cache single-flight, parallel runSites), the parallel GA fitness
# evaluation, and the campaign service (concurrent submits, single-flight
# dedup, admission control). -short trims the invariance matrix to keep
# this quick.
race:
	$(GO) test -race -short ./internal/ir/... ./internal/analysis/... ./internal/fault/... ./internal/minpsid/... ./internal/server/...

check: build vet test race

# Interpreter engine benchmarks (legacy and compiled rows). Results are
# appended as JSON lines to BENCH_interp.json (one object per benchmark
# per run, UTC-timestamped) so engine regressions are comparable across
# commits.
BENCH_JSON ?= BENCH_interp.json

# Static-analysis benchmarks: facts-build and triage cost, masked-site accounting, and
# campaign wall-clock with pruning on/off, appended to BENCH_analysis.json
# in the same JSON-lines shape. Custom ReportMetric columns (masked_frac,
# masked_bits, total_bits, pruned_frac) are captured generically.
BENCH_ANALYSIS_JSON ?= BENCH_analysis.json

# Detector-portfolio benchmarks: campaign ns/trial for every fault model
# × detector cell (BenchmarkDetectorCampaign), appended to
# BENCH_detectors.json so CI can gate per-cell regressions in the flip
# paths and detector lowerings.
BENCH_DETECTORS_JSON ?= BENCH_detectors.json

# Incremental-tier benchmarks: end-to-end sectional measure + campaign
# wall-clock under the three cache regimes (cold store, one-function
# edit on a warm store, fully-warm store), appended to
# BENCH_incremental.json. CI gates these with cmd/benchdiff so a
# sectional key-hygiene regression (edits re-running whole campaigns)
# surfaces as a wall-clock cliff on the edit/warm rows.
BENCH_INCREMENTAL_JSON ?= BENCH_incremental.json

# Analysis-v2 triage benchmarks: campaign ns/trial and pruned-trial
# fraction on full-DMR (duplication-protected) modules with triage on
# and off, appended to BENCH_triage2.json. CI gates the rows with
# cmd/benchdiff: a pruning regression shows up as an ns/trial cliff and
# a pruned_frac collapse on the triage=on rows.
BENCH_TRIAGE2_JSON ?= BENCH_triage2.json

# Campaign-service benchmarks: end-to-end scheduler cost on a cold
# store, the warm dedup path (with its dedup_hit_rate column), the
# inline-campaign baseline, and job-key derivation, appended to
# BENCH_server.json. CI gates these with cmd/benchdiff so scheduler or
# store-path overhead regressions surface before they tax every fleet
# submission.
BENCH_SERVER_JSON ?= BENCH_server.json

# Repetitions per benchmark. CI sets 3 and compares best-of-N
# (benchdiff -agg min) so shared-runner noise doesn't gate single samples.
BENCH_COUNT ?= 1

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench . -benchtime 200ms -count $(BENCH_COUNT) -run '^$$' ./internal/interp | tee /dev/stderr | \
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^Benchmark/ { \
		rec = sprintf("{\"ts\":\"%s\",\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", ts, $$1, $$2, $$3); \
		if ($$6 == "ns/instr") rec = rec sprintf(",\"ns_per_instr\":%s", $$5); \
		rec = rec "}"; print rec }' >> $(BENCH_JSON)
	$(GO) test -bench 'Triage|Facts|VerifySSA' -benchtime 100ms -count $(BENCH_COUNT) -run '^$$' \
		./internal/analysis ./internal/fault | tee /dev/stderr | \
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^Benchmark/ { \
		printf "{\"ts\":\"%s\",\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", ts, $$1, $$2, $$3; \
		for (i = 5; i < NF; i += 2) \
			if ($$(i+1) ~ /^[a-z_]+$$/) printf ",\"%s\":%s", $$(i+1), $$i; \
		print "}" }' >> $(BENCH_ANALYSIS_JSON)
	$(GO) test -bench DetectorCampaign -benchtime 50ms -count $(BENCH_COUNT) -run '^$$' \
		./internal/harness | tee /dev/stderr | \
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^Benchmark/ { \
		rec = sprintf("{\"ts\":\"%s\",\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", ts, $$1, $$2, $$3); \
		if ($$6 == "ns/trial") rec = rec sprintf(",\"ns_per_trial\":%s", $$5); \
		rec = rec "}"; print rec }' >> $(BENCH_DETECTORS_JSON)
	$(GO) test -bench Incremental -benchtime 1x -count $(BENCH_COUNT) -run '^$$' \
		./internal/pipeline | tee /dev/stderr | \
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^Benchmark/ { \
		printf "{\"ts\":\"%s\",\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s}\n", ts, $$1, $$2, $$3 }' >> $(BENCH_INCREMENTAL_JSON)
	$(GO) test -bench Triage2 -benchtime 50ms -count $(BENCH_COUNT) -run '^$$' \
		./internal/harness | tee /dev/stderr | \
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^Benchmark/ { \
		rec = sprintf("{\"ts\":\"%s\",\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", ts, $$1, $$2, $$3); \
		if ($$6 == "ns/trial") rec = rec sprintf(",\"ns_per_trial\":%s", $$5); \
		if ($$8 == "pruned_frac") rec = rec sprintf(",\"pruned_frac\":%s", $$7); \
		rec = rec "}"; print rec }' >> $(BENCH_TRIAGE2_JSON)
	$(GO) test -bench 'ServerCampaign|DirectCampaign|JobKey' -benchtime 1x -count $(BENCH_COUNT) -run '^$$' \
		./internal/server | tee /dev/stderr | \
	awk -v ts="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^Benchmark/ { \
		printf "{\"ts\":\"%s\",\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", ts, $$1, $$2, $$3; \
		for (i = 5; i < NF; i += 2) \
			if ($$(i+1) ~ /^[a-z_]+$$/) printf ",\"%s\":%s", $$(i+1), $$i; \
		print "}" }' >> $(BENCH_SERVER_JSON)
