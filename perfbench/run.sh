#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument passes through (see README.md):
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 22 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: the Go build cache, the binary and the worker
# checkpoint shards.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod or internal/)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --workdir "$build" "$@"
