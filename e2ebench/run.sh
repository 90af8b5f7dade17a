#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload dense-81 --seed 1 --seconds 30 --trace 0
#
# Every build artefact and cache stays under .bench_build/ in the
# current directory. Without the simulator's sources next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
