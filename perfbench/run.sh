#!/usr/bin/env bash
# Builds ratingd and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Build output, scratch WAL directories, results and spans all stay
# under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/ratingd ]; then
	echo "run.sh: no ratingd source (go.mod, cmd/ratingd) in $root; run it from the root of a checkout" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

# With telemetry on, the go command starts a detached upload process that
# outlives the build; "go telemetry off" starts none and switches it off
# for the go commands below.
go telemetry off >&2

go build -o "$build/bin/ratingd" ./cmd/ratingd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --ratingd "$build/bin/ratingd" --root "$root" "$@"
