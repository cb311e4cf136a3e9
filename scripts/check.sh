#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Run from the repository root (or via `make check`).
set -eux

go build ./...
go vet ./...
go test ./...
# The benchmark (perfbench/) is its own module, so the root `go test
# ./...` never reaches its correctness checks: injected drops,
# duplicates and inversions must fail the audit.
(cd perfbench && go test ./...)
go test -race ./internal/core/ ./internal/hazard/ ./internal/sharded/ ./internal/ring/
# Blocking stress under the race detector: the parking layer's lost-
# wakeup and close/drain interleavings (internal/waiter), plus the
# facade-level choreographed races and the concurrent close-drain
# conservation test (root package).
go test -race ./internal/waiter/
go test -race -run 'TestEnqueueNotifyRacesChainSwing|TestCloseDrainConcurrent|TestHandleGenerationRegression' .
# Queue-service layer under the race detector: registry lifecycle churn
# (concurrent create/delete/lookup of one name), delete-while-parked,
# the sweep-vs-delivery conservation CAS, and the wire/server/load
# stack end to end over real sockets.
go test -race ./internal/qsvc/ ./internal/qsvc/wire/ ./internal/qsvc/server/ ./internal/qsvc/load/
# Serve smoke: a real wfqserve process driven by wfqload over TCP —
# zero lost or duplicated envelopes or the generator exits nonzero —
# plus the server-backed pipeline example.
sh scripts/serve_smoke.sh
# Fuzz smoke: short randomized differentials against the sequential
# specification — the sharded frontend, and the core batch operations
# (regression corpora run in `go test` above; these probe fresh inputs).
go test -run='^$' -fuzz='^FuzzSharded$' -fuzztime=10s ./internal/sharded/
go test -run='^$' -fuzz='^FuzzBatchCore$' -fuzztime=10s ./internal/core/
go test -run='^$' -fuzz='^FuzzRing$' -fuzztime=10s ./internal/ring/
# Interleaving smoke: a bounded random sample (seeded, so repeatable)
# of a contended 3-thread dequeue program on the paper's base and Opt12
# queues. Three dequeuers racing on one sentinel reach the post-claim
# Stage 1 window of the in-place operation records (ALGORITHM.md); the
# explorer exits nonzero on any non-linearizable or non-conserving run.
go run ./cmd/wfqexplore -alg "base WF" -progs "e1,d,d;e2,d;d,e3" -initial 9 -random -max 50000
go run ./cmd/wfqexplore -alg "opt WF (1+2)" -progs "e1,d,d;e2,d;d,e3" -initial 9 -random -max 50000
# Wire decoders: arbitrary bytes never panic, and every accepted frame
# re-encodes to a frame that decodes the same.
go test -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime=10s ./internal/qsvc/wire/
go test -run='^$' -fuzz='^FuzzDecodeResponse$' -fuzztime=10s ./internal/qsvc/wire/
# Chaos smoke: the seeded stall-injection antagonist + wait-freedom
# step-bound watchdog across every frontend and adversary profile,
# under the race detector (exits nonzero on any violation, with the
# captured point trace).
go test -race ./internal/chaos/
go run -race ./cmd/wfqchaos -quick
# Wait-free ring helping under the crash-failure adversary, focused and
# seeded differently from the full -quick sweep above: victims freeze
# permanently mid-help (record published, ticket public, reserve
# pending) and the survivors' step bounds must hold while they finish
# the victims' operations from their tickets.
go run -race ./cmd/wfqchaos -quick -scenarios ring-wf,ring-wf-sharded -profiles permanent-kill -seed 7
# Helptree-focused cell: victims freeze permanently inside the tree's
# propagate/refresh/descend windows (the `tree` point class) on both
# slow paths; survivors must repair stale aggregates and stay inside
# the tightened polylog step budget.
go run -race ./cmd/wfqchaos -quick -scenarios core-tree,ring-tree -profiles permanent-kill -seed 11
# Tree races at the unit level, and the step-vs-threads series smoke:
# one tiny series point per tree scenario (full committed series lives
# in results/BENCH_polylog.json, regenerated via `wfqchaos -series`).
go test -race ./internal/helptree/
go test -run='^$' -bench BenchmarkStepSeries -benchtime=1x ./internal/chaos/
# Scaling observatory: campaign smoke + perf regression gate.
# 1. A tiny live matrix exercises the runner, per-cell GOMAXPROCS
#    stamping, snapshot and SVG chart paths end to end (fast WF and
#    ring WF on pairs: the ring fast path must run, not just pass tests),
#    plus one latency cell, one park cell and a small Figure 10.
# 2. The gate must PASS on the committed baseline (loads every
#    results/BENCH_campaign_*.json, matches all cells, zero regressions
#    — this is also the schema-stays-parseable check).
# 3. The gate must FAIL (nonzero, naming the offending cells) on an
#    injected 40% regression — a perf gate that cannot fail is not a
#    gate. Offline comparisons are deterministic, so neither step is
#    host-speed sensitive; the live re-measuring gate is `make gate`.
camp_tmp=$(mktemp -d)
go run ./cmd/wfqcampaign -quick -out "$camp_tmp/quick"
# The folded measurement paths, one cell each: per-operation latency
# percentiles (the latency workload) and the blocking-consumer park
# workload (conservation-checked; runs ~4 s of wall time).
go run ./cmd/wfqcampaign -variants "opt WF (1+2)" -workloads latency -threads 2 -procs 2 -iters 2000 -repeats 1 -nocharts -out "$camp_tmp/lat"
go run ./cmd/wfqcampaign -variants "blocking WF" -workloads park -threads 2 -procs 2 -repeats 1 -nocharts -out "$camp_tmp/park"
# Figure 10 smoke at 10^0..10^2 (the committed figure is 10^0..10^6).
go run ./cmd/wfqpaper -fig 10 -maxexp 2
go run ./cmd/wfqcampaign -gate -baseline results -candidate results
# Every per-recipe snapshot directory (results/ring/, ...) stays
# parseable and matches at least one cell against itself.
for d in results/*/; do go run ./cmd/wfqcampaign -gate -baseline "$d" -candidate "$d"; done
go run ./cmd/wfqcampaign -degrade 0.40 -baseline results -out "$camp_tmp/degraded"
! go run ./cmd/wfqcampaign -gate -baseline results -candidate "$camp_tmp/degraded"
rm -rf "$camp_tmp"
