#!/bin/bash
# The benchmark's one command: builds bench/ from source inside the checkout
# and runs it with the arguments given. Everything the build and the run
# write goes under .bench_build/ in the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
cd "$root"
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
