// Package wfq is a wait-free multi-producer multi-consumer FIFO queue for
// Go — an implementation of Kogan & Petrank, "Wait-Free Queues With
// Multiple Enqueuers and Dequeuers" (PPoPP 2011), with the paper's
// optimizations, enhancements, and hazard-pointer memory-management
// variant, plus the baselines it was evaluated against.
//
// # Why wait-free
//
// Lock-free queues (Michael–Scott and its descendants) guarantee that
// SOME thread always makes progress, but any particular thread can starve
// indefinitely. This queue guarantees that EVERY operation completes in a
// bounded number of steps regardless of how other threads are scheduled —
// the property needed under real-time deadlines, SLAs, or badly skewed
// schedulers. The price is a helping protocol: faster threads finish the
// operations of slower ones.
//
// # Thread identities
//
// The algorithm requires each concurrently operating thread to hold a
// distinct small integer id below the bound passed to New. Two styles are
// supported:
//
//   - Explicit tids: call Enqueue/Dequeue with a tid you manage yourself
//     (e.g. a worker-pool index).
//   - Handles: call Handle() to lease a tid from the queue's built-in
//     wait-free renaming namespace — the right choice for dynamically
//     created goroutines. Release the handle when the goroutine stops
//     using the queue.
//
// # Choosing a variant
//
// Use the default (both optimizations, matching the paper's best
// performer "opt WF (1+2)") unless you are studying the algorithm.
// VariantBase is the paper's §3.2 reference version; the single-
// optimization variants exist for the Figure 9 ablation.
//
// When raw throughput at low-to-moderate contention matters more than
// the helping protocol's bookkeeping, select Fast (via WithFastPath):
// each operation first runs a bounded number of direct lock-free
// attempts — the Michael–Scott shape, no phase or descriptor — and only
// publishes a descriptor and enters the helping machinery after
// exhausting its patience. Every operation still completes in a bounded
// number of steps, so wait-freedom is preserved; the fast attempts just
// make the uncontended case as cheap as the lock-free baseline.
//
// # Quick start
//
//	q := wfq.New[string](8) // up to 8 concurrent threads
//	h, _ := q.Handle()
//	defer h.Release()
//	h.Enqueue("job-1")
//	if v, ok := h.Dequeue(); ok {
//		fmt.Println(v)
//	}
package wfq

import (
	"wfq/internal/core"
	"wfq/internal/phase"
	"wfq/internal/ring"
	"wfq/internal/sharded"
	"wfq/internal/tid"
	"wfq/internal/waiter"
)

// Variant selects the algorithm flavour; see the package documentation.
type Variant = core.Variant

// Algorithm variants (the series names of the paper's figures).
const (
	// Base is the paper's §3.2 algorithm: phase by state-array scan,
	// help-everyone traversal.
	Base Variant = core.VariantBase
	// Opt1 helps at most one other thread per operation (§3.3 opt 1).
	Opt1 Variant = core.VariantOpt1
	// Opt2 uses a CAS-based shared phase counter (§3.3 opt 2).
	Opt2 Variant = core.VariantOpt2
	// Opt12 combines both optimizations (the default and the paper's
	// recommended configuration).
	Opt12 Variant = core.VariantOpt12
	// Fast is the fast-path/slow-path engine: bounded lock-free
	// attempts, then the Opt12 helping machinery. Usually selected via
	// WithFastPath rather than WithVariant.
	Fast Variant = core.VariantFast
)

// Option configures a queue.
type Option func(*config)

// config is a resolved option list: the composition New builds (engine,
// shard count) and the options it forwards to the KP engine. variant and
// patience mirror the engine's last-wins resolution of WithVariant and
// WithFastPath, so the ring engine takes the same patience the KP engine
// would.
type config struct {
	engine   []core.Option
	shards   int
	ring     bool
	segSize  int
	variant  Variant
	patience int
}

func configOf(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// engineOption forwards a KP-engine option unchanged.
func engineOption(o core.Option) Option {
	return func(c *config) { c.engine = append(c.engine, o) }
}

// WithVariant selects an algorithm variant.
func WithVariant(v Variant) Option {
	return func(c *config) {
		c.variant = v
		c.engine = append(c.engine, core.WithVariant(v))
	}
}

// WithHelpChunk sets how many state entries an Opt1/Opt12 operation
// scans for helping candidates (default 1).
func WithHelpChunk(k int) Option { return engineOption(core.WithHelpChunk(k)) }

// WithRandomHelping switches Opt1/Opt12 helping-candidate choice from
// cyclic to random (probabilistic wait-freedom, §3.3).
func WithRandomHelping() Option { return engineOption(core.WithRandomHelping()) }

// WithPhaseProvider overrides the Opt2/Opt12 phase source.
func WithPhaseProvider(p phase.Provider) Option { return engineOption(core.WithPhaseProvider(p)) }

// WithMetrics attaches internal event counters (help traffic, CAS
// failures); read them via the core Queue's Metrics method when
// constructing through internal/core directly.
func WithMetrics() Option { return engineOption(core.WithMetrics()) }

// WithFastPath selects the Fast variant: up to patience direct lock-free
// attempts per operation before falling back to the wait-free helping
// protocol (patience <= 0 selects the default, 8).
// The patience goes to whichever engine New builds: the KP engine's
// lock-free attempts, or, with WithRing, the ring's fast-path attempts
// before it publishes a helping record. Like the engine, the last of
// WithFastPath and WithVariant wins.
func WithFastPath(patience int) Option {
	return func(c *config) {
		if patience <= 0 {
			patience = core.DefaultPatience
		}
		c.variant, c.patience = Fast, patience
		c.engine = append(c.engine, core.WithFastPath(patience))
	}
}

// WithArena block-allocates queue nodes from per-thread arena segments
// of blockSize nodes (<= 0 selects the default, 64), so steady-state
// allocations drop to roughly one per blockSize enqueues. Nodes are
// never reused on the GC variant, only batched; see internal/pool for
// the ownership rules.
func WithArena(blockSize int) Option { return engineOption(core.WithArena(blockSize)) }

// WithShards(n) puts a wait-free ticket dispatcher in front of n
// independent shards, each running the configured engine. Ordering
// weakens from one FIFO to per-shard FIFO (ticket residue classes), and
// Dequeue's empty result becomes per-ticket: n consecutive empty results
// with no active producer prove the queue empty. In exchange the hot
// head/tail words and the helping state-array are split n ways. n <= 1
// means unsharded. See the Sharding section of README.md and
// ALGORITHM.md.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithRing(segSize) replaces the linked-node engine with the
// ring-segment storage backend (internal/ring): elements live in
// contiguous slot segments claimed by one fetch-and-add per operation,
// segments are chained only at the boundary, and retired segments
// recycle through a bounded free list — zero steady-state allocations
// and cache-sequential access. segSize <= 0 selects the default (1024
// slots). Ordering stays a single FIFO; progress is wait-free: after a
// bounded number of fast-path attempts an operation publishes a helping
// record and peers finish it from its ticket — see ALGORITHM.md,
// "Wait-free ring helping". The ring's patience is WithFastPath's when
// the Fast variant is selected, ring.DefaultPatience otherwise. Composes
// with WithShards (ring shards behind the ticket dispatcher); the
// remaining engine options (WithArena, WithMetrics, ...) do not apply to
// the ring engine and are ignored.
func WithRing(segSize int) Option {
	return func(c *config) { c.ring, c.segSize = true, segSize }
}

// backend is the queue engine behind the public API: a KP core queue, a
// hazard-pointer queue, a ring, or the sharded frontend over any of
// them. Every engine has first-class batch operations.
type backend[T any] interface {
	sharded.Shard[T]
	NumThreads() int
}

// Queue is a wait-free MPMC FIFO queue of T. Create one with New, or
// with NewHP for the hazard-pointer variant.
//
// With WithShards(n), n > 1, the queue runs n independent shards behind
// a wait-free ticket dispatcher; ordering is then FIFO per shard rather
// than globally, and Dequeue's empty result is per-ticket — see
// WithShards.
type Queue[T any] struct {
	q   backend[T]
	reg *tid.Registry

	// Blocking/lifecycle plumbing (see blocking.go): the gate is the
	// queue's waiter set + close state (the sharded frontend's own gate
	// when sharded, so its drain mask sees the close); src is the
	// waiter.Source view of the backend; cycle is the residue-coverage
	// bound of the park-loop recheck (the shard count on a sharded
	// queue, 1 otherwise).
	g     *waiter.Gate
	src   waiter.BatchSource[T]
	cycle int
}

// New creates a queue supporting up to maxThreads concurrently operating
// threads, using the Opt12 variant unless overridden by options.
// maxThreads is an upper bound, not an exact count; it also sizes the
// Handle namespace.
func New[T any](maxThreads int, opts ...Option) *Queue[T] {
	c := configOf(append([]Option{WithVariant(Opt12)}, opts...))
	engine := func() backend[T] {
		if !c.ring {
			return core.New[T](maxThreads, c.engine...)
		}
		var ro []ring.Option
		if c.variant == Fast {
			ro = append(ro, ring.WithPatience(c.patience))
		}
		return ring.New[T](maxThreads, c.segSize, ro...)
	}
	if c.shards <= 1 {
		return newQueue(engine())
	}
	shards := make([]sharded.Shard[T], c.shards)
	for i := range shards {
		shards[i] = engine()
	}
	sh := sharded.NewOf[T](maxThreads, shards)
	return &Queue[T]{
		q:     sh,
		reg:   tid.NewRegistry(maxThreads),
		g:     sh.Gate(),
		src:   sh,
		cycle: len(shards),
	}
}

// NewHP creates a queue for up to maxThreads threads over the
// hazard-pointer engine (§3.4 of the paper): nodes are recycled through
// per-thread pools instead of being left to the garbage collector,
// demonstrating — and testing — the discipline a runtime without GC
// would need. For ordinary Go use, prefer New. poolCap bounds each
// thread's node free list (0 selects the default). Of the options,
// WithFastPath and WithArena are honoured; PoolStats reads the pools.
func NewHP[T any](maxThreads, poolCap int, opts ...Option) *Queue[T] {
	return newQueue[T](core.NewHP[T](maxThreads, poolCap, 0, configOf(opts).engine...))
}

// newQueue wraps an unsharded engine.
func newQueue[T any](b backend[T]) *Queue[T] {
	return &Queue[T]{
		q:     b,
		reg:   tid.NewRegistry(b.NumThreads()),
		g:     waiter.NewGate(b.NumThreads()),
		src:   singleSource[T]{b},
		cycle: 1,
	}
}

// MaxThreads reports the queue's concurrency bound.
func (q *Queue[T]) MaxThreads() int { return q.q.NumThreads() }

// MaxObservedPhase reports the largest phase number currently published
// in the backend's helping state (max across shards when sharded). It
// exists for the chaos watchdog's §3.3 wrap guard — see phase.MaxSafe —
// and for monitoring; values are racy snapshots.
func (q *Queue[T]) MaxObservedPhase() int64 {
	if p, ok := q.q.(interface{ MaxObservedPhase() int64 }); ok {
		return p.MaxObservedPhase()
	}
	return 0
}

// PoolStats reports the hazard-pointer engine's node reuse counters
// (hits, allocator misses, drops); zeros on queues built by New, which
// leave nodes to the garbage collector.
func (q *Queue[T]) PoolStats() (hits, misses, drops int64) {
	if p, ok := q.q.(interface{ PoolStats() (int64, int64, int64) }); ok {
		return p.PoolStats()
	}
	return 0, 0, 0
}

// Shards reports the shard count (1 when unsharded).
func (q *Queue[T]) Shards() int { return q.cycle }

// Enqueue inserts v at the tail on behalf of thread tid. tid must be in
// [0, MaxThreads()) and must not be used concurrently by another
// goroutine (use Handle for automatic management). Enqueue on a closed
// queue panics, like a send on a closed channel; use TryEnqueue when
// racing Close is expected.
func (q *Queue[T]) Enqueue(tid int, v T) {
	if err := q.TryEnqueue(tid, v); err != nil {
		panic("wfq: Enqueue on closed queue")
	}
}

// Dequeue removes and returns the oldest element on behalf of thread tid.
// ok is false when the queue was empty at the operation's linearization
// point. On a sharded queue "empty" refers to the shard the operation's
// ticket dispatched it to; see WithShards.
func (q *Queue[T]) Dequeue(tid int) (v T, ok bool) { return q.q.Dequeue(tid) }

// EnqueueBatch inserts vs in order on behalf of thread tid, atomically
// with respect to position: unsharded, the values are pre-linked into a
// node chain and enter the queue with ONE linearizing CAS, so they
// occupy consecutive FIFO positions with nothing interleaved — and the
// whole batch costs one descriptor publish at most. On a sharded queue
// the batch costs one dispatch ticket fetch-and-add, fans out round-
// robin over consecutive tickets, and each shard's portion is appended
// as one chain; contiguity then holds within each shard's FIFO.
// Like Enqueue, it panics on a closed queue; use TryEnqueueBatch when
// racing Close is expected.
func (q *Queue[T]) EnqueueBatch(tid int, vs []T) {
	if err := q.TryEnqueueBatch(tid, vs); err != nil {
		panic("wfq: EnqueueBatch on closed queue")
	}
}

// DequeueBatch removes up to len(dst) elements into dst, returning how
// many were obtained. Unsharded, it is a fast-path multi-claim plus
// single dequeues — each removal linearizes individually, the batch form
// just amortizes the per-call setup; it stops early only on an empty
// observation. On a sharded queue the batch claims len(dst) consecutive
// dispatch tickets with one fetch-and-add — probing len(dst) consecutive
// shards, so a batch of Shards() slots samples every shard once.
func (q *Queue[T]) DequeueBatch(tid int, dst []T) int { return q.q.DequeueBatch(tid, dst) }

// ShardDepths reports a racy snapshot of each shard's element count; a
// single-element slice when unsharded. Monitoring and tests only.
func (q *Queue[T]) ShardDepths() []int {
	if s, ok := q.q.(interface{ ShardDepths() []int }); ok {
		return s.ShardDepths()
	}
	return []int{q.q.Len()}
}

// Len reports a racy snapshot of the number of queued elements. O(n);
// intended for monitoring and tests, not synchronization.
func (q *Queue[T]) Len() int { return q.q.Len() }

// Handle leases a thread id from the queue's renaming namespace and
// returns a Handle bound to this queue. It fails with tid.ErrExhausted
// when maxThreads goroutines concurrently hold handles.
func (q *Queue[T]) Handle() (*Handle[T], error) {
	h, err := q.reg.Acquire()
	if err != nil {
		return nil, err
	}
	return &Handle[T]{q: q, h: h}, nil
}

// Handle is a leased per-goroutine identity on a Queue. A Handle must not
// be shared between goroutines that operate concurrently; Release it when
// done so the id returns to the namespace.
type Handle[T any] struct {
	q *Queue[T]
	h tid.Handle
}

// TID exposes the underlying thread id (useful for logging/debugging).
func (h *Handle[T]) TID() int { return h.h.TID() }

// Enqueue inserts v at the tail.
func (h *Handle[T]) Enqueue(v T) { h.q.Enqueue(h.h.TID(), v) }

// Dequeue removes and returns the oldest element; ok is false when the
// queue was empty.
func (h *Handle[T]) Dequeue() (v T, ok bool) { return h.q.Dequeue(h.h.TID()) }

// EnqueueBatch inserts vs in order; see Queue.EnqueueBatch.
func (h *Handle[T]) EnqueueBatch(vs []T) { h.q.EnqueueBatch(h.h.TID(), vs) }

// DequeueBatch removes up to len(dst) elements into dst; see
// Queue.DequeueBatch.
func (h *Handle[T]) DequeueBatch(dst []T) int { return h.q.DequeueBatch(h.h.TID(), dst) }

// Release returns the leased id. The Handle must not be used afterwards.
// The lease's generation is retired before the id re-enters the
// namespace and the queue's waiter set is then broadcast, so a waiter
// still parked under this lease (a DequeueCtx in flight on another
// goroutine — itself a misuse, but one this layer contains) wakes,
// fails its liveness check, and returns ErrReleased instead of
// consuming wakeups addressed to the id's next holder.
func (h *Handle[T]) Release() {
	h.h.Release()
	h.q.g.Broadcast()
}
