#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload dense-nogoods --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build product (the Go build
# cache, the binary, span files of traced runs) stays under .bench_build, or
# under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$PWD"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep the go command's caches, telemetry and configuration inside the
# build directory, build with the local toolchain only, and ignore any
# workspace file or flags of the calling environment.
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-runs" "$@"
