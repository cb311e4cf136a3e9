package core

import (
	"fmt"
	"sync/atomic"

	"wfq/internal/helptree"
	"wfq/internal/phase"
	"wfq/internal/pool"
	"wfq/internal/xrand"
)

// Variant selects which flavour of the algorithm a Queue runs.
type Variant int

// Algorithm variants, matching the series of the paper's figures.
const (
	// VariantBase is the base algorithm of §3.2: maxPhase() scan and
	// help-everyone traversal of the state array.
	VariantBase Variant = iota
	// VariantOpt1 helps at most one other thread per operation, chosen
	// cyclically (optimization 1 of §3.3).
	VariantOpt1
	// VariantOpt2 draws phases from a CAS-bumped shared counter
	// (optimization 2 of §3.3) but keeps help-everyone.
	VariantOpt2
	// VariantOpt12 combines both optimizations — the "opt WF (1+2)"
	// series of Figures 7–9.
	VariantOpt12
	// VariantFast is the fast-path/slow-path execution engine: an
	// operation first runs a bounded number of plain lock-free
	// (Michael–Scott-style) attempts directly on head/tail — no phase,
	// no descriptor, no state-array store — and only on exhausting that
	// patience publishes a descriptor and enters the wait-free helping
	// machinery (which runs the VariantOpt12 slow path). Per-thread step
	// complexity stays bounded, so wait-freedom is preserved, while the
	// uncontended cost matches the lock-free baseline. See ALGORITHM.md,
	// "The fast path".
	VariantFast
)

// String names the variant as the paper's figures do.
func (v Variant) String() string {
	switch v {
	case VariantBase:
		return "base WF"
	case VariantOpt1:
		return "opt WF (1)"
	case VariantOpt2:
		return "opt WF (2)"
	case VariantOpt12:
		return "opt WF (1+2)"
	case VariantFast:
		return "fast WF"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Option configures a Queue beyond its Variant.
type Option func(*config)

type config struct {
	variant     Variant
	helpChunk   int
	patience    int
	arenaBlock  int
	arena       bool
	helpTree    bool
	helpTreeSet bool
	randomHelp  bool
	metrics     bool
	phases      phase.Provider
}

// DefaultPatience is the number of lock-free fast-path attempts an
// operation makes before falling back to the wait-free helping protocol
// when WithFastPath is enabled without an explicit patience. Large enough
// that transient contention rarely forces the fallback, small enough that
// the per-operation step bound stays tight.
const DefaultPatience = 8

// WithVariant selects the algorithm variant (default VariantBase).
func WithVariant(v Variant) Option { return func(c *config) { c.variant = v } }

// WithFastPath selects VariantFast and sets its patience: the number of
// bounded lock-free attempts Enqueue/Dequeue make on the head/tail before
// publishing a descriptor and entering the wait-free helping protocol.
// patience <= 0 selects DefaultPatience. The fast path linearizes at the
// same CASes as the slow path (the Line 74 append, the Line 135 deqTid
// claim), so the two paths compose into a single linearizable history;
// the bounded patience preserves wait-freedom.
func WithFastPath(patience int) Option {
	return func(c *config) {
		c.variant = VariantFast
		if patience <= 0 {
			patience = DefaultPatience
		}
		c.patience = patience
	}
}

// WithHelpChunk sets k, the number of state-array entries a VariantOpt1/
// VariantOpt12 operation examines for helping (§3.3 allows any 1 ≤ k < n;
// the paper's evaluation uses k = 1, the default).
func WithHelpChunk(k int) Option { return func(c *config) { c.helpChunk = k } }

// WithHelpTree attaches the tournament-tree announcement structure
// (internal/helptree) to the helping slow path: a slow-path operation
// announces its (phase, tid) in a per-thread leaf and propagates the
// minimum toward the root; helpers find the oldest pending operation by
// an O(log n) root-to-leaf descent instead of relying solely on the
// cyclic cursor probe. The cursor probe is kept as a deterministic
// backstop (every record is still visited within n gated entries), so
// the Opt1 helping guarantee is preserved while helpers converge on the
// oldest phase — the polylog-helping direction of Naderibeni & Ruppert.
//
// The tree is a hint: linearizability never depends on it (help targets
// re-validate against the real descriptor), it only changes whom a
// helper assists first. Applies to VariantOpt1/Opt12/Fast; the
// help-everyone variants (Base, Opt2) ignore it — they are the paper's
// reference algorithms and keep the verbatim scan. Default: on for
// VariantFast, off otherwise.
func WithHelpTree() Option {
	return func(c *config) { c.helpTree, c.helpTreeSet = true, true }
}

// WithoutHelpTree disables the helptree even for VariantFast, restoring
// the pure cursor-probe helping (the pre-tree behaviour, useful for
// before/after measurement).
func WithoutHelpTree() Option {
	return func(c *config) { c.helpTree, c.helpTreeSet = false, true }
}

// WithRandomHelping makes VariantOpt1/VariantOpt12 pick helping
// candidates at random instead of cyclically — the §3.3 alternative:
// "each thread might traverse a random chunk of the array, achieving
// probabilistic wait-freedom". Each thread draws from its own seeded
// splitmix64 stream, so runs remain reproducible.
func WithRandomHelping() Option { return func(c *config) { c.randomHelp = true } }

// WithMetrics attaches per-thread event counters (help traffic, CAS
// failures, tail/head fixes) readable through Queue.Metrics. Used by the
// help-traffic experiments; costs one nil-check per counted event when
// disabled and one atomic add when enabled.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithPhaseProvider overrides the phase source used by VariantOpt2 and
// VariantOpt12 (default: the paper's CAS counter; phase.NewFAA is the
// fetch-and-add alternative §3.3 mentions).
func WithPhaseProvider(p phase.Provider) Option { return func(c *config) { c.phases = p } }

// WithArena makes the queue block-allocate its nodes from a per-thread
// arena (internal/pool.Arena) instead of one heap allocation per node:
// each thread fills private segments of blockSize nodes (<=0 selects
// pool.DefaultArenaBlock, 64), so steady-state allocs/op drop to roughly
// 1/blockSize. Arena nodes are never reused, so every pointer-equality
// argument of the GC variant is unchanged; on the HP variant the arena
// backs the node pool's miss path and recycling still goes through the
// free lists. The cost is allocation granularity: a block is garbage-
// collected only when all blockSize nodes in it are unreachable.
func WithArena(blockSize int) Option {
	return func(c *config) {
		c.arena = true
		c.arenaBlock = blockSize
	}
}

// sepBytes is the false-sharing separation unit for the hot per-thread
// and head/tail words: two cache lines, not one, because the adjacent-
// cacheline prefetcher of modern x86 cores pulls lines in 128-byte pairs,
// so 64-byte separation still ping-pongs neighbouring entries. The
// compile-time assertions in padding_test.go keep the struct sizes honest.
const sepBytes = 128

// Record states, the low three bits of stateRec.ctl.
const (
	// stDoneEnq is a completed enqueue — and the constructor's record
	// (phase -1, non-pending, enqueue), so the zero ctl word is valid.
	stDoneEnq uint64 = iota
	stPendEnq
	stPendDeq
	// stDoneDeq is a dequeue that claimed a sentinel (returns a value);
	// stDoneDeqEmpty one that linearized on an empty queue.
	stDoneDeq
	stDoneDeqEmpty
	stMask = 7
)

// ctlWord packs a record version and state; ctlNext is the word a
// transition from c to state st installs. Versions grow by one on every
// transition and never repeat, so a CAS expecting a loaded word fails
// if any transition happened since the load.
func ctlWord(ver, st uint64) uint64 { return ver<<3 | st }
func ctlNext(c, st uint64) uint64   { return ctlWord(c>>3+1, st) }
func ctlPending(c uint64) bool      { st := c & stMask; return st == stPendEnq || st == stPendDeq }

// stateRec is one thread's operation record — the paper's OpDesc made
// mutable in place (ALGORITHM.md, "In-place operation records"). Helpers
// CAS ctl, only from a pending word, and a dequeue's node; the owner
// writes phase, node and chainTail only while the record is done, so its
// stores never race a helper's CAS. Padded to its own cache-line pair:
// the records are the hottest CAS targets in the algorithm.
type stateRec[T any] struct {
	// ctl is ver<<3 | st, one of the st* states.
	ctl atomic.Uint64
	// phase is the operation's Bakery-style priority; smaller is older.
	// Readers load it after ctl: a thread's phases never decrease, so a
	// torn read over-estimates only the phase of a completed operation.
	phase atomic.Int64
	// node is the enqueue's node (the chain head for a batch). A
	// dequeue publishes the head it read, and its completion (Line 149)
	// replaces that with the node holding the dequeued value. nil
	// between operations.
	node atomic.Pointer[node[T]]
	// chainTail is the last node of a batch enqueue's chain (nil
	// otherwise). The owner writes it before node; helpers read it after
	// node.
	chainTail atomic.Pointer[node[T]]
	_         [sepBytes - 32]byte
}

// pendingAt loads the record word and reports whether it is a pending
// operation at a phase not exceeding ph — the paper's isStillPending on
// one snapshot, returning the word so the caller can CAS against it.
func (r *stateRec[T]) pendingAt(ph int64) (uint64, bool) {
	c := r.ctl.Load()
	return c, ctlPending(c) && r.phase.Load() <= ph
}

// publish makes the owner's new operation visible (Lines 62–63 and
// 99–100): phase, then the pending ctl word. The caller stores node (and
// a batch's chainTail) first.
func (r *stateRec[T]) publish(ph int64, st uint64) {
	r.phase.Store(ph)
	r.ctl.Store(ctlNext(r.ctl.Load(), st))
}

// paddedCursor is a per-thread helping cursor for VariantOpt1/Opt12.
// With WithRandomHelping, rng replaces the cyclic index. passed counts
// the thread's head advances (unlinkPassed).
type paddedCursor struct {
	i      int
	rng    xrand.SplitMix64
	passed uint64
	_      [sepBytes - 24]byte
}

// Queue is the Kogan–Petrank wait-free MPMC FIFO queue. Create one with
// New; all methods are safe for concurrent use by up to NumThreads()
// threads with distinct tids.
type Queue[T any] struct {
	headRef atomic.Pointer[node[T]]
	_       [sepBytes - 8]byte
	tailRef atomic.Pointer[node[T]]
	_       [sepBytes - 8]byte
	// slowPending counts operations currently published in the state
	// array (maintained only when the fast path is enabled). The fast
	// path consults it and stands down while it is nonzero: an unbounded
	// stream of fast-path operations never reads the state array, so
	// without this gate it could invalidate a slow-path operation's
	// linearizing CAS forever — a wait-freedom violation (found by the
	// chaos antagonist; see ALGORITHM.md, "Measured wait-freedom"). With
	// the gate, once a slow descriptor is published only the fast
	// operations already past the gate (at most n-1, each bounded by its
	// patience) remain oblivious; every later operation takes the slow
	// path, whose helping protocol completes the stalled operation.
	slowPending atomic.Int32
	_           [sepBytes - 4]byte
	// state is the per-thread operation-record array (Line 26).
	state []stateRec[T]
	// cursor drives cyclic help-one candidate selection (VariantOpt1).
	cursor []paddedCursor

	nthreads  int
	variant   Variant
	helpChunk int
	// patience is the fast-path attempt bound; 0 disables the fast path
	// (every operation goes straight to the helping protocol).
	patience   int
	randomHelp bool
	// met is non-nil when WithMetrics is set.
	met *Metrics
	// phases is non-nil for VariantOpt2/Opt12.
	phases phase.Provider
	// arena is non-nil when WithArena is set; nodes then come from
	// per-thread bump-allocated blocks instead of individual allocations.
	arena *pool.Arena[node[T]]
	// tree is non-nil when the helptree announcement structure is
	// attached (WithHelpTree; default for VariantFast) — see help().
	tree *helptree.Tree
}

// New creates a queue for up to nthreads concurrent threads (the paper's
// NUM_THRDS — an upper bound, not necessarily tight).
func New[T any](nthreads int, opts ...Option) *Queue[T] {
	if nthreads <= 0 {
		panic("core: nthreads must be positive")
	}
	cfg := config{helpChunk: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.variant == VariantFast && cfg.patience == 0 {
		// WithVariant(VariantFast) without WithFastPath.
		cfg.patience = DefaultPatience
	}
	if cfg.helpChunk < 1 || cfg.helpChunk >= nthreads {
		// §3.3 requires 1 <= k < n; clamp rather than reject so a
		// 1-thread queue still constructs.
		if cfg.helpChunk < 1 {
			cfg.helpChunk = 1
		} else {
			cfg.helpChunk = max(1, nthreads-1)
		}
	}
	q := &Queue[T]{
		state:      make([]stateRec[T], nthreads),
		cursor:     make([]paddedCursor, nthreads),
		nthreads:   nthreads,
		variant:    cfg.variant,
		helpChunk:  cfg.helpChunk,
		patience:   cfg.patience,
		randomHelp: cfg.randomHelp,
	}
	for i := range q.cursor {
		q.cursor[i].rng = *xrand.NewSplitMix64(uint64(i) + 1)
	}
	if cfg.metrics {
		q.met = newMetrics(nthreads)
	}
	if cfg.arena {
		q.arena = pool.NewArena[node[T]](nthreads, cfg.arenaBlock)
	}
	if cfg.variant == VariantOpt2 || cfg.variant == VariantOpt12 || cfg.variant == VariantFast {
		// VariantFast's slow path is the Opt12 machinery: counter-based
		// phases plus help-one traversal.
		q.phases = cfg.phases
		if q.phases == nil {
			q.phases = phase.NewCAS()
		}
	}
	if !cfg.helpTreeSet {
		cfg.helpTree = cfg.variant == VariantFast
	}
	if cfg.helpTree && cfg.variant != VariantBase && cfg.variant != VariantOpt2 {
		q.tree = helptree.New(nthreads)
	}
	// Constructor, Lines 27–35: one sentinel node; every record starts
	// as a non-pending enqueue (the zero ctl word) at phase -1.
	var zero T
	sentinel := newNode(zero, noTID)
	q.headRef.Store(sentinel)
	q.tailRef.Store(sentinel)
	for i := range q.state {
		q.state[i].phase.Store(-1)
	}
	return q
}

// NumThreads reports the queue's thread capacity.
func (q *Queue[T]) NumThreads() int { return q.nthreads }

// Metrics returns the event counters, or nil unless the queue was built
// with WithMetrics.
func (q *Queue[T]) Metrics() *Metrics { return q.met }

// VariantOf reports the configured algorithm variant.
func (q *Queue[T]) VariantOf() Variant { return q.variant }

// Patience reports the fast-path attempt bound (0 when the fast path is
// disabled).
func (q *Queue[T]) Patience() int { return q.patience }

// Name implements the harness's Named interface.
func (q *Queue[T]) Name() string { return q.variant.String() }

func (q *Queue[T]) checkTid(tid int) {
	if tid < 0 || tid >= q.nthreads {
		panic(fmt.Sprintf("core: tid %d out of range [0,%d)", tid, q.nthreads))
	}
}

// maxPhase scans the state array for the largest published phase —
// Lines 48–57.
func (q *Queue[T]) maxPhase() int64 {
	maxPh := int64(-1)
	for i := range q.state {
		if ph := q.state[i].phase.Load(); ph > maxPh {
			maxPh = ph
		}
	}
	return maxPh
}

// nextPhase chooses the phase for a new operation: maxPhase()+1 for the
// scan-based variants (Line 62/99), or a counter bump for Opt2/Opt12.
func (q *Queue[T]) nextPhase() int64 {
	if q.phases != nil {
		return q.phases.Next()
	}
	return q.maxPhase() + 1
}

// MaxObservedPhase reports the largest phase currently published in the
// state array. Diagnostic: the chaos watchdog asserts it stays far below
// the §3.3 64-bit wrap horizon (see internal/phase).
func (q *Queue[T]) MaxObservedPhase() int64 { return q.maxPhase() }

// fastAllowed reports whether thread tid may run the lock-free fast path
// right now: the fast path is configured AND no slow-path operation is
// currently published (see the slowPending field comment).
func (q *Queue[T]) fastAllowed(tid int) bool {
	if q.patience <= 0 {
		return false
	}
	if q.slowPending.Load() != 0 {
		q.met.incGateSkip(tid)
		return false
	}
	return true
}

// isStillPending reports whether thread tid has a pending operation at a
// phase not exceeding ph — Lines 58–60.
func (q *Queue[T]) isStillPending(tid int, ph int64) bool {
	_, ok := q.state[tid].pendingAt(ph)
	return ok
}

// allocNode builds a node for thread tid's enqueue: bump-allocated from
// the arena when WithArena is on, an individual allocation otherwise.
func (q *Queue[T]) allocNode(tid int, v T, enqTid int32) *node[T] {
	if q.arena != nil {
		n := q.arena.Get(tid)
		// Fresh arena memory is zeroed, but a zero deqTid would read as
		// "claimed by thread 0" — reset installs the -1 sentinels.
		n.reset(v, enqTid)
		return n
	}
	return newNode(v, enqTid)
}

// ArenaStats reports (blocks allocated, nodes handed out) of the node
// arena; zeros unless the queue was built with WithArena.
func (q *Queue[T]) ArenaStats() (blocks, gets int64) {
	if q.arena == nil {
		return 0, 0
	}
	return q.arena.Stats()
}
