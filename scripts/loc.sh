#!/bin/sh
# Prints the repository's non-test Go line count: every *.go file except
# *_test.go, outside the nested bench module (bench/) and its build tree
# (.bench_build/). Run from anywhere inside the checkout:
#
#   sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print0 |
	xargs -0 cat | wc -l | tr -d ' '
