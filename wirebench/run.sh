#!/usr/bin/env bash
# Builds the benchmark and oftm-server from the checkout it is run in,
# then runs one workload:
#
#   bash wirebench/run.sh --workload hot-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, Go cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
here="$root/wirebench"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin"
(cd "$here" && go build -o "$out/bin/wirebench" . && go build -o "$out/bin/oftm-server" repro/cmd/oftm-server) >&2
exec "$out/bin/wirebench" -server "$out/bin/oftm-server" -config "$here/workloads.json" -work "$out/wirebench" "$@"
