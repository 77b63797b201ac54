#!/bin/bash
# The benchmark's build file: builds ./bench from the checkout's sources and
# runs it with the arguments given. Everything the Go toolchain writes — build
# cache, module cache, temporary files, its telemetry counters — is kept
# inside the checkout, under .bench_build/.
set -e
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
