#!/usr/bin/env bash
# Builds the benchmark and cmd/wfqserve from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs and the Go build cache stay in .bench_build/ at the
# checkout's root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
if sha="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export PERFBENCH_GIT_SHA="$sha"
fi
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/wfqserve" wfq/cmd/wfqserve) >&2
cd "$root"
exec "$out/perfbench" -server "$out/wfqserve" "$@"
