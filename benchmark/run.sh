#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run write stays under .bench_build in the checkout: the
# go command's caches and temporary files, its telemetry counters (which go
# to the user's configuration directory) and the binary. GOENV=off and
# GOTOOLCHAIN=local keep it from reading a user's go env file or fetching
# another toolchain.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/motifbench" .)
exec "$out/motifbench" -root "$root" "$@"
