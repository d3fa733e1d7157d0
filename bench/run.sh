#!/usr/bin/env bash
# Builds the mission benchmark from the checkout it is run in, then runs
# it with the given arguments. Run it from the checkout root:
#
#   bash bench/run.sh --workload locate --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything else the go command
# writes stay under .bench_build/ in that root. The benchmark module
# builds against the repository one directory up (bench/go.mod), so in a
# directory without the repository's sources the build, and this
# script, fail before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/rfly-bench" .
exec "$out/rfly-bench" "$@"
