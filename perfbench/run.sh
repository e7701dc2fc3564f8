#!/usr/bin/env bash
# Builds the consim benchmark from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mix_seq --seed 1 --seconds 4 --trace 0
#   bash perfbench/run.sh compare base.json head.json
#
# Everything the build and the runs write stays under .bench_build in
# the checkout: the Go build cache, the binary, and each run's record
# and spans.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" -outdir "$out/runs" "$@"
