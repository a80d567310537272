#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout: every file it writes (Go build
# cache, binary, spans) goes under .bench_build/perfbench there.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
