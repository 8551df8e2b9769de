#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload edit-loop --seed 1 --seconds 5 --trace 0
#
# The benchmark is a Go module of its own (perfbench/go.mod) that reaches
# the program's packages through a replace directive, so it builds only
# inside a full checkout. Every build and run artifact, the Go build cache
# included, stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

if ! (cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2; then
	echo "perfbench: build failed (the benchmark needs the full checkout)" >&2
	exit 2
fi
exec "$build/bin/perfbench" --root "$root" "$@"
