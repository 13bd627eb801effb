#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 5 --trace 0
#
# Run from the repository root. Every build product, the Go build cache
# and the benchmark's scratch files stay under .bench_build/, so the run
# reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "run.sh: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
