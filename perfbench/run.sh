#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload screen --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, scratch artifact-cache dirs) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. Without
# the repository's sources next to it the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
