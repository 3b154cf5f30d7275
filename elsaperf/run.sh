#!/usr/bin/env bash
# Builds the elsaperf benchmark from source and runs it.
#
#   bash elsaperf/run.sh --workload attend-oneshot --seed 1 --seconds 25 --trace 0
#   bash elsaperf/run.sh steady -runs 10 attend-oneshot engine-offline decode-step
#
# Run it from the repository root. Build outputs (the Go build cache and
# the binary) and traces go under .bench_build/ in the current directory,
# so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
# The go command also writes its config and telemetry under the home
# directory; point that into the build directory too.
(cd "$here" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/elsaperf" .) >&2
exec "$out/elsaperf" "$@"
