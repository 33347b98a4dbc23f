#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it runs in, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/e2e/run.sh --workload gtc-paper --seed 42 --seconds 20 --trace 0
#   bash bench/e2e/run.sh -seed 42 -out result.json       # every workload
#   bash bench/e2e/run.sh -compare a.json b.json
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout. Outside a full checkout (no go.mod two
# levels up) the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/e2e"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C bench/e2e build -o "$build/e2e" .
exec "$build/e2e" "$@"
