#!/bin/sh
# bench.sh — host-performance harness for the simulation kernel.
#
# Builds cmd/simbench and measures the kernel's host cost (events/sec,
# allocs/event, context-switch and ping-pong latency, parallel-runner
# scaling, the telemetry bus's zero-subscriber Emit overhead, and the
# adaptive read-ahead policy's decision cost) plus one offline recovery
# (ufs.Repair then ufs.Fsck of a fixed crash image: host ns, allocs,
# bytes, sectors read) and the RAID-5 parity fold (offline
# read-modify-write of 32 KB chunks: MB/s, allocs, bytes), writing the
# report to BENCH_sim.json at the repo root. Then builds cmd/iobench and runs `iobench -matrix`, which
# writes every feature comparison matrix from one table
# (cmd/iobench/matrix.go) to BENCH_iobench.json: the read-ahead policy
# matrix (policy x {FSR, FRR, FMX} under memory pressure, with prefetch
# hit/waste counters), the volume matrix (cluster size x RAID level x
# stripe width, with the parity-path counters), the vectored-I/O matrix
# (FSTR stride x Readv strategy, with the vec counters and the
# sieve/list crossover), and the metadata-journal matrix (journal mode
# x {FSW, FSR}, with the wal commit/checkpoint counters). The
# cmd/iobench tests require the committed file to equal that output.
#
# If a BENCH_sim.json already exists, its recorded baseline (the
# pre-fast-path kernel, measured interleaved against the new one when
# this harness was introduced) is carried forward so the old-vs-new
# speedup columns stay anchored to the same reference across runs.
#
# The recovery baseline is carried forward the same way, from the prior
# report's recovery_baseline or, when it has none, its current recovery
# numbers. To re-anchor it, build simbench from the old tree (copying in
# this tree's cmd/simbench/main.go if the old one predates the recovery
# workload), run it with `-baseline BENCH_sim.json -o old.json`, copy
# old.json over BENCH_sim.json without its recovery_baseline, and run
# this script on the new tree right after, on the same host. The parity
# baseline (parity_baseline) is carried and re-anchored the same way.
#
# Usage: scripts/bench.sh [extra simbench flags]
#   e.g. scripts/bench.sh -reps 12
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> go build ./cmd/simbench"
go build -o "$tmp/simbench" ./cmd/simbench

baseline=""
if [ -f BENCH_sim.json ]; then
    baseline="-baseline BENCH_sim.json"
    # simbench reads the baseline before the output file is replaced,
    # but write to a temp path anyway so an interrupted run cannot
    # leave a truncated report behind.
fi

echo "==> simbench"
# shellcheck disable=SC2086 # $baseline is intentionally word-split
"$tmp/simbench" $baseline -o "$tmp/BENCH_sim.json" "$@"

mv "$tmp/BENCH_sim.json" BENCH_sim.json
echo "bench: wrote BENCH_sim.json"

echo "==> go build ./cmd/iobench"
go build -o "$tmp/iobench" ./cmd/iobench

echo "==> iobench -matrix"
"$tmp/iobench" -matrix "$tmp/BENCH_iobench.json"
mv "$tmp/BENCH_iobench.json" BENCH_iobench.json
echo "bench: wrote BENCH_iobench.json"
