#!/usr/bin/env bash
# Builds the ledger and runs it with the arguments given, from the root of
# the checkout. Everything the build and the run write lives in
# .bench_build/ inside the checkout: the binary, the Go build cache, the
# toolchain's temporary and configuration directories, and the checkpoint
# stores of the serve workloads.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
	export GOTOOLCHAIN=local GOPROXY=off
	go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
