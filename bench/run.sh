#!/usr/bin/env bash
# Builds the campaign benchmark from the sources in this checkout and runs
# it from the checkout root, passing every argument through:
#
#   bash bench/run.sh -reps 3 --workload showdown --seed 5 --seconds 28 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/
# in the checkout, and the go command may not download anything, so the
# build reads and writes nothing outside the checkout. The bench module
# resolves the simulator from the parent directory, so a copy of bench/
# without the rest of the repository fails to build and exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
