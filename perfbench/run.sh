#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload facility-100k --seed 1 --seconds 10 --trace 0
#
# Every build artefact (the Go build cache included) stays under
# .bench_build/ in the working directory, so the script writes nothing
# outside the checkout it measures.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"

# The Go toolchain's caches, config and telemetry all live under $HOME
# unless told otherwise; keep them inside the checkout.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false"
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -out "$out/results" "$@"
