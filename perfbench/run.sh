#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#	bash perfbench/run.sh --workload <fabric|fig4|pretrain|infer> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact, the Go build cache and temporary files stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
