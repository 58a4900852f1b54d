#!/usr/bin/env bash
# Builds the benchmark and cmd/tracecheck from this checkout and runs the
# benchmark with the given arguments. Run it from the module root:
#
#   bash dirbench/run.sh --workload offline-grid --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binaries, the Go build cache and the run's scratch files.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/tracecheck ]]; then
	echo "dirbench: run from the root of a dirsim checkout (go.mod, internal/ and cmd/ not found)" >&2
	exit 1
fi

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export TMPDIR="$PWD/$out/tmp"
export GOPATH="$PWD/$out/gopath"
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local

go build -o "$out/dirbench" ./dirbench
go build -o "$out/tracecheck" ./cmd/tracecheck
exec "$out/dirbench" -workdir "$out/work" -tracecheck "$out/tracecheck" "$@"
