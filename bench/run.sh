#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ under the current directory (the root of a checkout) and
# runs it with the arguments given. Everything the go tool writes - build
# cache, temporary files, its own settings, the span files of traced runs
# - is kept under .bench_build/ too.
set -eu

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local TMPDIR=$build/tmp

go build -C "$root/bench" -o "$build/atomfs-bench" .
exec "$build/atomfs-bench" "$@"
