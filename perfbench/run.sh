#!/bin/sh
# Builds the benchmark from the checkout's own source and runs it. Run it
# from the repository root, with the flags perfbench takes:
#
#   sh perfbench/run.sh --workload cluster-hit --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go command's configuration and
# telemetry directory, and the binary stay under .bench_build/ in the
# current directory; nothing is fetched.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
