#!/usr/bin/env bash
# Builds the archive benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload archive-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the working directory (Go build cache, the binary, and each run's
# temporary archive directory, which the run removes itself).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
	/*) ;;
	*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/archivebench" .) >&2
exec "$out/archivebench" -workdir "$out/runs" -root "$root" "$@"
