#!/usr/bin/env bash
# Builds lrukd and the benchmark from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload zipf-get --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, data directories, span files) goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/lrukd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/lrukd, perfbench/)" >&2
	exit 1
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
# Keep the toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/lrukd" ./cmd/lrukd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" --lrukd "$out/lrukd" --work "$out/work"
