#!/usr/bin/env bash
# Builds the fluxperf benchmark from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash fluxperf/run.sh --workload fig4-join --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, generated documents and span dumps —
# goes under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/fluxperf" "$build/tmp"

# Keep the toolchain's caches and settings inside the build directory.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/fluxperf" && go build -trimpath -o "$build/fluxperf/fluxperf" .)
exec "$build/fluxperf/fluxperf" --dir "$build/fluxperf" "$@"
