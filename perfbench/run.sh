#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload clustered-pp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary store, trace files) stays under
# .bench_build/perfbench in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
