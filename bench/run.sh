#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The benchmark is a module of its own (bench/go.mod) that imports the
# engine through a replace directive on the parent directory, so it
# measures the source tree it sits in. Everything the build and the run
# write — Go's build cache, temporary files, the binary, durable data
# directories, trace files — goes under .bench_build in the checkout root;
# nothing is written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gomod"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
# The toolchain keeps its telemetry counters under the user's config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"

go build -C bench -o "$build/enblogue-bench" .
exec "$build/enblogue-bench" "$@"
