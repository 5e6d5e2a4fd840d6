#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload admin-local --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# temporary files, the binary) stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOTOOLCHAIN=local GOENV=off \
	GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
