#!/usr/bin/env bash
# Builds routeserve and the benchmark from this checkout, then runs one
# workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload tcp-thm11 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and snapshots go to .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/routeserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a compactroute checkout" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -o "$out/routeserve" ./cmd/routeserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -routeserve "$out/routeserve" -workdir "$out" "$@"
