#!/usr/bin/env bash
# Builds gsched, gschedd and the benchmark from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cli_huge --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache and the go command's own
# config files stay under .bench_build/. Go telemetry is switched off
# there: left on, the go command starts a detached upload process that
# outlives the run.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/gsched || ! -d cmd/gschedd ]]; then
	echo "perfbench: run from the root of a gsched checkout" >&2
	exit 1
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/gsched ./cmd/gschedd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
