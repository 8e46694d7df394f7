#!/usr/bin/env bash
# Builds the qed2 benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark, e.g.
#
#   bash qed2perf/run.sh -workload suite -seed 1 -seconds 20 -trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory (or $CARGO_TARGET_DIR when set), and the toolchain is
# never fetched, so a run reads and writes nothing outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "qed2perf: run from the root of a qed2 checkout" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/qed2perf" ./qed2perf
exec "$out/qed2perf" "$@"
