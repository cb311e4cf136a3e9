package core

import "sync/atomic"

// noTID is the sentinel thread id stored in deqTid while no dequeue has
// claimed the node, and in enqTid of the initial sentinel node (the paper
// initializes both to -1).
const noTID int32 = -1

// fastTID is the deqTid value a fast-path dequeue (VariantFast) claims
// the sentinel with. A fast-path operation has no descriptor, so helpers
// that find deqTid = fastTID — or a dangling node with enqTid = noTID,
// the mark of a fast-path append — skip descriptor completion and only
// fix head/tail. fastTID is distinct from every valid thread id and from
// noTID, so the deqTid CAS discipline (claimed at most once, never reset
// while the node is in the list) is unchanged.
const fastTID int32 = -2

// node is an element of the underlying singly-linked list — the paper's
// Node class (Figure 1, Lines 1–12).
type node[T any] struct {
	// value is the enqueued element.
	value T
	// next links toward the tail; set once per residence in the list
	// (by the Line 74 CAS) and never reset. On the GC queue a
	// slow-path node that head has moved past is linked to itself
	// (Queue.unlinkPassed).
	next atomic.Pointer[node[T]]
	// enqTid identifies the thread whose enqueue inserted this node.
	// Written by exactly one thread before the node is published, read
	// by helpers to find the owner's descriptor (Line 89), so a plain
	// field suffices — same reasoning as the paper's non-atomic field.
	enqTid int32
	// deqTid identifies the thread whose dequeue removes the node that
	// FOLLOWS this one; claimed by CAS (Line 135) while this node is
	// the sentinel. Multiple helpers race on it, hence atomic.
	deqTid atomic.Int32
}

// newNode builds a fresh node owned by enqTid. The zero next pointer and
// the -1 deqTid match the paper's constructor.
func newNode[T any](v T, enqTid int32) *node[T] {
	n := &node[T]{value: v, enqTid: enqTid}
	n.deqTid.Store(noTID)
	return n
}

// reset reinitializes a recycled node for reuse by the hazard-pointer
// variant. The caller must own the node exclusively (it came from a
// per-thread pool after a hazard scan proved it unreachable).
func (n *node[T]) reset(v T, enqTid int32) {
	n.value = v
	n.next.Store(nil)
	n.enqTid = enqTid
	n.deqTid.Store(noTID)
}

// opDesc is an immutable operation descriptor — the paper's OpDesc class
// (Figure 1, Lines 13–24), kept by HPQueue. Descriptors are replaced,
// never mutated, so a pointer CAS on a state entry atomically replaces
// the whole record, just like Java's AtomicReferenceArray<OpDesc>. The
// GC Queue versions one record per thread in place instead (stateRec).
type opDesc[T any] struct {
	// phase is the operation's Bakery-style priority; smaller is older.
	phase int64
	// pending is true from the descriptor's publication until the
	// operation's step (2) marks it linearized-and-recorded.
	pending bool
	// enqueue distinguishes the operation type.
	enqueue bool
	// node is operation-specific: for an enqueue, the node to insert;
	// for a dequeue, the sentinel node preceding the dequeued value
	// (nil while unset, and nil in the final descriptor of a dequeue
	// that observed an empty queue).
	node *node[T]
	// value is the §3.4 extension: the dequeued value is copied here by
	// help_finish_deq so the dequeuer never dereferences node after it
	// may have been retired and recycled.
	value T
	// hasValue marks value as meaningful (dequeues only).
	hasValue bool
}

// paddedDesc keeps each thread's HPQueue state entry on its own
// cache-line pair.
type paddedDesc[T any] struct {
	p atomic.Pointer[opDesc[T]]
	_ [sepBytes - 8]byte
}

// stillPending reports whether descriptor d is pending at a phase not
// exceeding ph — Lines 58–60 on one loaded snapshot.
func stillPending[T any](d *opDesc[T], ph int64) bool {
	return d.pending && d.phase <= ph
}
