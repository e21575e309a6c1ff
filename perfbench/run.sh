#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-leafspine --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository root: the Go build cache, temporary build files, the
# binary and the CPU profiles of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
