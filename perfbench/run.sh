#!/usr/bin/env bash
# run.sh builds the benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload creation --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) of the checkout: the Go build
# cache, the binary and the traced run's spans and profiles.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config" "$build/trace"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$build/config
export PERFBENCH_OUT=$build/trace PPROF_TMPDIR=$build/trace

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
