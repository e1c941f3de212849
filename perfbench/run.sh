#!/usr/bin/env bash
# Builds schemex-server and the benchmark from this checkout into
# .bench_build/ and runs one benchmark workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload cold-dbg8 --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/: the Go
# build cache, temporary files, server data directories and traces.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go build -o "$out/bin/schemex-server" ./cmd/schemex-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --server "$out/bin/schemex-server" \
	--workdir "$out/work" --trace-dir "$out/traces" "$@"
