#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload sdc-chaos --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
