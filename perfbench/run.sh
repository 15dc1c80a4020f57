#!/usr/bin/env bash
# Builds perfbench from the checkout and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The Go build cache, module cache, build
# temporaries and binary all live under .bench_build/, so nothing outside
# the checkout is written.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/go/tmp"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOMODCACHE="$out/go/path/pkg/mod" TMPDIR="$out/go/tmp"
export XDG_CONFIG_HOME="$out/go/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
(cd "$root/perfbench" && go build -o "$out/go/perfbench" .)
exec "$out/go/perfbench" "$@"
