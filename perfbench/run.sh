#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache) go under $CARGO_TARGET_DIR,
# default .bench_build, relative to the repository root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD)
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit="$commit-dirty"
fi

(cd perfbench && go build -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
