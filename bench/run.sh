#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-trace 0|1] ...
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, temporary files, journal directories, trace files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: run from the repository root (go.mod, internal/ and bench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/fpgasat-bench" .)
exec "$out/fpgasat-bench" "$@"
