#!/usr/bin/env bash
# Builds suud and the benchmark driver from the checkout in the current
# directory, then runs the driver with this script's arguments:
#
#   bash perfbench/run.sh --workload batch-mixed --seed 1 --seconds 30 --trace 0
#
# Every file it writes (Go caches, binaries, suud store directories) lands
# under .bench_build/ in the current directory. A directory without the
# repository's sources fails the build, so the script exits non-zero
# without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
go build -o "$out/bin/suud" ./cmd/suud
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -suud "$out/bin/suud" -workdir "$out" "$@"
