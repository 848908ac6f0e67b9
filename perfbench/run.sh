#!/usr/bin/env bash
# Builds cardserved and the benchmark from this checkout's sources into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest_tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build output, the Go build
# cache, the compiler's temporary files and the go command's own config and
# telemetry files stay inside .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cardserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/cardserved and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomod" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/bin/cardserved" repro/cmd/cardserved && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
