#!/bin/sh
# Regenerate results/BENCH_qsvc.json: boot wfqserve on an ephemeral
# port and run the wfqload snapshot matrix against it — the Poisson
# arrival-rate sweep over the ring backend, bursty overload into an
# admission cap, and the closed loop at -users (default 10000).
# Usage: sh scripts/bench_qsvc.sh [users] [duration]
set -eu

USERS="${1:-10000}"
DURATION="${2:-2s}"

BIN="$(mktemp -d)"
PORTFILE="$BIN/port"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/wfqserve" ./cmd/wfqserve
go build -o "$BIN/wfqload" ./cmd/wfqload

"$BIN/wfqserve" -addr 127.0.0.1:0 -portfile "$PORTFILE" &
SERVE_PID=$!

i=0
while [ ! -s "$PORTFILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "bench_qsvc: server never bound" >&2
        exit 1
    fi
    sleep 0.1
done

"$BIN/wfqload" -addr "$(cat "$PORTFILE")" -bench \
    -users "$USERS" -duration "$DURATION" -json results/BENCH_qsvc.json
