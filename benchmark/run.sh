#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments. The Go
# build cache, GOPATH, the binary, DDI scratch stores and the lock file all
# live under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
bin="$build/vdap-benchmark"
before=$(stat -c %Y "$bin" 2>/dev/null || echo none)
(cd "$here" && go build -o "$bin" .) >&2
if [ "$(stat -c %Y "$bin")" != "$before" ]; then
	# A fresh build leaves hundreds of megabytes of dirty pages behind; let
	# them reach the disk now rather than during the measured window.
	sync
fi
exec "$bin" "$@"
