#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout's root. Everything the build writes — the binary, the Go build
# cache, Go's temporary and telemetry files — stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"
