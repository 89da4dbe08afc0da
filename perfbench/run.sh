#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload adhoc-scan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traces all stay under .bench_build/ (or $CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-traces" "$@"
