package sharded

import (
	"context"

	"wfq/internal/waiter"
)

// This file is the frontend's blocking/lifecycle surface: tracked
// (close-aware, waiter-notifying) enqueues, Close with linearizable
// close-after-drain semantics, and context-aware blocking dequeues. The
// plain ticket operations in sharded.go stay untracked and unchanged —
// they are the benchmark surface — and remain usable alongside these as
// long as the caller does not race plain enqueues with Close.

// Gate exposes the frontend's blocking/lifecycle layer so the facade
// (package wfq) can drive the generic park loops with a caller-supplied
// liveness (Handle leases) against this queue's waiter set.
func (q *Queue[T]) Gate() *waiter.Gate { return q.gate }

// Drained reports whether, after Close quiesced the enqueue side, every
// shard has been observed empty at least once. Implements
// waiter.Source; meaningful only post-quiescence (false before).
func (q *Queue[T]) Drained() bool { return q.drainLeft.Load() == 0 }

// markDrained records a post-quiescence empty observation of shard s.
// Shard emptiness is monotone once no enqueue can land, so the first
// miss per shard decides it forever.
func (q *Queue[T]) markDrained(s int) {
	if !q.drainMissed[s].Swap(true) {
		q.drainLeft.Add(-1)
	}
}

// Close closes the queue: tracked enqueues fail with waiter.ErrClosed
// from here on, parked waiters wake, and pending elements remain
// dequeuable. Close returns (nil) only after every tracked enqueue that
// entered before the close has landed, so the element set is fixed.
// Later calls return waiter.ErrClosed.
func (q *Queue[T]) Close() error { return q.gate.Close() }

// Closed reports whether Close has begun.
func (q *Queue[T]) Closed() bool { return q.gate.Closed() }

// TryEnqueue is the tracked Enqueue: it fails with waiter.ErrClosed
// after Close (publishing nothing), and wakes blocked dequeuers when it
// succeeds. Uncontended extra cost over Enqueue: two flag stores, one
// closed load, one waiter-count load.
func (q *Queue[T]) TryEnqueue(tid int, v T) error {
	_, err := q.TryEnqueueTicket(tid, v)
	return err
}

// TryEnqueueTicket is TryEnqueue returning the dispatch ticket.
func (q *Queue[T]) TryEnqueueTicket(tid int, v T) (uint64, error) {
	if !q.gate.Enter(tid) {
		return 0, waiter.ErrClosed
	}
	t := q.EnqueueTicket(tid, v)
	q.gate.Exit(tid)
	q.gate.Notify(tid)
	return t, nil
}

// TryEnqueueBatch is the tracked EnqueueBatch: all-or-nothing against
// Close, one notify for the whole batch.
func (q *Queue[T]) TryEnqueueBatch(tid int, vs []T) (uint64, error) {
	if !q.gate.Enter(tid) {
		return 0, waiter.ErrClosed
	}
	t := q.EnqueueBatchTicket(tid, vs)
	q.gate.Exit(tid)
	q.gate.Notify(tid)
	return t, nil
}

// DequeueCtx blocks until an element is available (returned with nil
// error even if the queue closed meanwhile — pending elements remain
// dequeuable), the queue is closed AND drained (waiter.ErrClosed), or
// ctx ends (ctx.Err()). The fast path — element available — is the
// plain wait-free ticket dequeue plus one atomic load; parking happens
// only after bounded empty attempts.
func (q *Queue[T]) DequeueCtx(ctx context.Context, tid int) (T, error) {
	return waiter.DequeueCtx[T](ctx, q.gate, q, nil, tid, waiter.DefaultSpin, len(q.shards))
}

// DequeueBatchCtx blocks until at least one element lands in dst
// (n > 0, nil error), the queue is closed and drained (0,
// waiter.ErrClosed), or ctx ends.
func (q *Queue[T]) DequeueBatchCtx(ctx context.Context, tid int, dst []T) (int, error) {
	return waiter.DequeueBatchCtx[T](ctx, q.gate, q, nil, tid, waiter.DefaultSpin, len(q.shards), dst)
}
