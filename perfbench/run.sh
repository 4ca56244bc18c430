#!/usr/bin/env bash
# Builds the benchmark from the sources beside it and runs it from the
# repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-local --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare old.txt new.txt
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root (or under $CARGO_TARGET_DIR when that is set): the
# binary, the Go build cache, the Go tool's own state and the run's
# scratch files. The build needs the repository's own module one level
# up, so run outside a full checkout it fails before measuring anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
	export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -buildvcs=false -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
