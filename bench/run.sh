#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it, so the Go
# build cache, the toolchain's scratch and telemetry files, the binary and
# everything the program writes stay inside the checkout (the program finds
# the checkout root from its working directory). Arguments pass through
# unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local \
	go -C "$here" build -o "$out/airperf" .
exec "$out/airperf" "$@"
