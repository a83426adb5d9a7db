#!/usr/bin/env bash
# Builds the benchmark driver and the adaptbf-node daemon from this
# checkout, then runs the driver. Everything written lands in .bench_build/
# at the checkout root; build time is not part of any metric.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the go command's cache, module cache and telemetry counters inside
# the checkout too, and off the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" GOPROXY=off
cd "$root/benchmark"
go build -o "$build/benchmark" .
go build -o "$build/adaptbf-node" adaptbf/cmd/adaptbf-node
cd "$root"
exec "$build/benchmark" -root "$root" -node-bin "$build/adaptbf-node" "$@"
