package wfq

import (
	"context"
	"errors"

	"wfq/internal/queues"
	"wfq/internal/waiter"
)

// This file is the blocking and lifecycle surface of the public API:
// Close with linearizable close-after-drain semantics, close-aware
// TryEnqueue variants, and context-aware blocking dequeues, on Queue
// (whatever its engine: KP, hazard-pointer, ring, or the sharded
// frontend behind WithShards) and on Handle. The machinery lives in
// internal/waiter; see ALGORITHM.md,
// "Blocking and termination", for why parking preserves the wait-free
// progress claims.

// ErrClosed reports an operation on a closed queue: a TryEnqueue after
// Close, or a blocking dequeue after Close once every pending element
// has been drained.
var ErrClosed = waiter.ErrClosed

// ErrReleased reports a blocking operation through a Handle whose lease
// was released (generation retired) while the operation was in flight.
var ErrReleased = errors.New("wfq: handle released")

// Close closes the queue. After Close returns:
//
//   - TryEnqueue/TryEnqueueBatch fail with ErrClosed and publish
//     nothing (Enqueue/EnqueueBatch panic);
//   - elements already enqueued remain dequeuable, by both the
//     non-blocking and the blocking dequeues;
//   - blocked DequeueCtx/DequeueBatchCtx callers wake, drain what is
//     left, and then return ErrClosed.
//
// Close linearizes after some prefix of the concurrent enqueues: it
// waits for every tracked enqueue admitted before the close to land, so
// the set of elements the queue will ever hold is fixed when it
// returns. The first call returns nil; subsequent calls ErrClosed.
func (q *Queue[T]) Close() error { return q.g.Close() }

// Closed reports whether Close has begun.
func (q *Queue[T]) Closed() bool { return q.g.Closed() }

// TryEnqueue is Enqueue that fails with ErrClosed instead of panicking
// once the queue is closed, and wakes blocked dequeuers on success.
// Uncontended extra cost over the raw engine enqueue: two in-flight
// flag stores, one closed load, one waiter-count load — all on
// uncontended cache lines.
func (q *Queue[T]) TryEnqueue(tid int, v T) error {
	if !q.g.Enter(tid) {
		return ErrClosed
	}
	q.q.Enqueue(tid, v)
	q.g.Exit(tid)
	q.g.Notify(tid)
	return nil
}

// TryEnqueueBatch is EnqueueBatch that fails with ErrClosed instead of
// panicking once the queue is closed: the batch lands entirely or not
// at all with respect to Close, and blocked dequeuers get one wake for
// the whole batch.
func (q *Queue[T]) TryEnqueueBatch(tid int, vs []T) error {
	if !q.g.Enter(tid) {
		return ErrClosed
	}
	q.q.EnqueueBatch(tid, vs)
	q.g.Exit(tid)
	q.g.Notify(tid)
	return nil
}

// DequeueCtx removes and returns the oldest element, blocking while the
// queue is empty. It returns ErrDeadlineExceeded (errors.Is-compatible
// with context.DeadlineExceeded) when ctx's deadline ends the wait,
// ctx.Err() when ctx is canceled, and ErrClosed when the queue is
// closed AND drained — elements enqueued before Close are still
// delivered (with a nil error) after it.
//
// The fast path is wait-free: when an element is available, DequeueCtx
// is the plain Dequeue plus one atomic load. Parking (channel wait)
// happens only after a bounded number of empty attempts, and the
// registration protocol guarantees no lost wakeups — see
// internal/waiter.
func (q *Queue[T]) DequeueCtx(ctx context.Context, tid int) (T, error) {
	v, err := waiter.DequeueCtx[T](ctx, q.g, q.src, nil, tid, waiter.DefaultSpin, q.cycle)
	return v, wrapCtxErr(err)
}

// DequeueBatchCtx removes up to len(dst) elements into dst, blocking
// until at least one is obtained (n > 0 implies a nil error), the queue
// is closed and drained (0, ErrClosed), or ctx ends (0, ctx.Err()).
func (q *Queue[T]) DequeueBatchCtx(ctx context.Context, tid int, dst []T) (int, error) {
	n, err := waiter.DequeueBatchCtx[T](ctx, q.g, q.src, nil, tid, waiter.DefaultSpin, q.cycle, dst)
	return n, wrapCtxErr(err)
}

// singleSource adapts an unsharded backend to the waiter.Source view.
// Drained is unconditionally true: a single KP (or HP) queue's empty
// dequeue result linearizes as genuine emptiness — there is no "element
// hiding elsewhere" as in the sharded frontend — and after Close has
// quiesced the enqueue side (the only state in which the park loop
// consults Drained), emptiness is permanent.
type singleSource[T any] struct{ backend[T] }

func (singleSource[T]) Drained() bool { return true }

// Err implements waiter.Liveness for Handle: ErrReleased once the
// lease's generation is retired. The blocking loops check it at the top
// of every iteration — in particular immediately after every wakeup —
// so a stale waiter never touches the queue on behalf of a lease it no
// longer holds.
func (h *Handle[T]) Err() error {
	if !h.h.Valid() {
		return ErrReleased
	}
	return nil
}

// TryEnqueue is Queue.TryEnqueue through the handle's lease.
func (h *Handle[T]) TryEnqueue(v T) error { return h.q.TryEnqueue(h.h.TID(), v) }

// TryEnqueueBatch is Queue.TryEnqueueBatch through the handle's lease.
func (h *Handle[T]) TryEnqueueBatch(vs []T) error { return h.q.TryEnqueueBatch(h.h.TID(), vs) }

// DequeueCtx is Queue.DequeueCtx through the handle's lease, with one
// addition: if the handle is Released while the caller blocks, it
// returns ErrReleased — waiter registration is keyed by the lease
// generation's liveness, not the bare tid, so the waiter cannot consume
// wakeups that belong to the id's next lease.
func (h *Handle[T]) DequeueCtx(ctx context.Context) (T, error) {
	v, err := waiter.DequeueCtx[T](ctx, h.q.g, h.q.src, h, h.h.TID(), waiter.DefaultSpin, h.q.cycle)
	return v, wrapCtxErr(err)
}

// DequeueBatchCtx is Queue.DequeueBatchCtx through the handle's lease;
// see DequeueCtx for the release semantics.
func (h *Handle[T]) DequeueBatchCtx(ctx context.Context, dst []T) (int, error) {
	n, err := waiter.DequeueBatchCtx[T](ctx, h.q.g, h.q.src, h, h.h.TID(), waiter.DefaultSpin, h.q.cycle, dst)
	return n, wrapCtxErr(err)
}

// Interface conformance: the int64 instantiation drives the harness's
// blocking workloads and the soak tool's close-driven drain.
var _ queues.Lifecycled = (*Queue[int64])(nil)
