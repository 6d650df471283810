#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload run-saturated --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The benchmark reads the commit itself; -buildvcs=false keeps the build
# from depending on a git binary or on the checkout being a work tree.
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out" "$@"
