#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments
# given, from the root of a checkout. Everything the Go toolchain
# writes (build cache, temporary files, its configuration directory)
# is pointed into .bench_build/, so nothing is written outside the
# checkout; a rebuild with a warm cache takes well under a second.
# Go telemetry is switched off in that configuration directory first:
# with it on, the first go command of the day starts a detached
# "go telemetry" child that can outlive this script.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-modcacherw GOTOOLCHAIN=local \
	go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
