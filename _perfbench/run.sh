#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload, passing every argument through:
#
#   bash _perfbench/run.sh --workload home-trace --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# in .bench_build/ there, including the Go build cache and, with
# --trace 1, the span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "run.sh: run from the root of a cloud4home checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the go command writes (cache, module cache, temporary
# work directories, telemetry and env files under the config dir) inside
# the checkout, and never download a toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
