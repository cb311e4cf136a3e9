// Package core implements the Kogan–Petrank wait-free multi-producer
// multi-consumer FIFO queue (PPoPP 2011), the primary contribution of the
// reproduced paper, in all the flavours the paper describes:
//
//   - Queue with VariantBase — the base algorithm of §3.2, a faithful
//     translation of the paper's Figures 1–6 (the source comments cite the
//     paper's line numbers).
//   - VariantOpt1 — optimization 1 of §3.3/§4: each operation helps at
//     most one other thread, chosen in cyclic order over the state array.
//   - VariantOpt2 — optimization 2: the phase number comes from a shared
//     CAS-bumped counter instead of the maxPhase() scan.
//   - VariantOpt12 — both optimizations (the "opt WF (1+2)" series of the
//     paper's figures).
//   - HPQueue — the §3.4 adaptation for runtimes without a garbage
//     collector: nodes are recycled through per-thread pools guarded by
//     hazard pointers, and the operation descriptor carries the dequeued
//     value so nodes can be retired as soon as they leave the list.
//
// # The algorithm in brief
//
// The queue is a singly-linked list with head and tail references, as in
// Michael–Scott, plus a state array holding one operation descriptor
// (OpDesc) per thread; Queue keeps it as a preallocated record per thread
// whose versioned control word every state CAS targets, instead of a new
// immutable descriptor per transition (ALGORITHM.md, "In-place operation
// records"). An operation first chooses a phase number larger
// than every phase chosen before it (Lamport's Bakery doorway), publishes
// a pending descriptor, and then helps every pending operation with phase
// ≤ its own. Each operation is split into three atomic steps — (1) a
// linearizing change to the list, (2) flipping the descriptor's pending
// bit, (3) fixing head/tail — so different threads can execute steps of
// the same operation, yet each step happens exactly once (Lemmas 1–2 of
// §5). Wait-freedom follows because an operation can be overtaken only by
// operations with a phase no larger than its own, of which there are
// finitely many.
//
// # Thread identities
//
// Operations take an explicit tid in [0, NumThreads()), mirroring the
// paper's assumption of small unique thread IDs. Callers with dynamic
// goroutines obtain tids from internal/tid (built on the wait-free
// renaming namespace of internal/renaming), exactly the relaxation §3.3
// proposes.
package core
