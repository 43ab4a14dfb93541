#!/usr/bin/env bash
# Builds the benchmark harness and the sliced daemon from source, then
# runs one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and every temporary file live under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/xdg"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/" . jumpslice/cmd/sliced) >&2
exec "$build/bin/perfbench" -sliced "$build/bin/sliced" -workdir "$build" "$@"
