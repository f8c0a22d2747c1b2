#!/usr/bin/env bash
# Builds topkd and the benchmark program from the checkout this script sits
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything it writes — the Go build
# cache, the binaries, the daemons' data directories and the span files —
# stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/topkd" ]]; then
	echo "perfbench: run from the root of a probtopk checkout (go.mod and cmd/topkd not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
# The module has no dependencies outside the checkout: nothing is fetched.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/topkd" ./cmd/topkd
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -topkd "$out/topkd" -work "$out" "$@"
