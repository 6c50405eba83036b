#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from
# the root of the repository:
#
#   bash perfbench/run.sh --workload fig10 --seed 1 --seconds 25 --trace 0
#
# The binary and the Go build cache live under .bench_build, so nothing
# is written outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ $out == /* ]] || out="$PWD/$out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
