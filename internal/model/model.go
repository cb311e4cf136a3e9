// Package model provides the sequential FIFO queue specification that the
// concurrent implementations in this repository are checked against.
//
// The linearizability checker (internal/lincheck) and the property-based
// tests drive concurrent histories through this reference object; a
// concurrent queue is correct exactly when every history it produces can be
// reordered into a legal sequential history of this model (Herlihy & Wing,
// 1990 — the correctness condition assumed in §5 of the paper).
package model

// Queue is an unbounded sequential FIFO queue of int64 values. The zero
// value is an empty queue ready for use.
//
// The representation is a growable ring buffer: amortized O(1) operations
// and no per-element allocation, so the model never dominates the cost of
// the checkers built on top of it.
type Queue struct {
	buf  []int64
	head int // index of oldest element
	n    int // number of elements
}

// Enqueue appends v to the tail of the queue. It always succeeds,
// mirroring the unbounded queues of the paper.
func (q *Queue) Enqueue(v int64) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Dequeue removes and returns the oldest element. ok is false and the
// queue is unchanged when the queue is empty — the "EmptyException" case of
// the paper's deq().
func (q *Queue) Dequeue() (v int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	v = q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue) Peek() (v int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.buf[q.head], true
}

// Len reports the number of elements in the queue.
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *Queue) Empty() bool { return q.n == 0 }

// At returns the i-th oldest element (0 is the head); i must be in
// [0, Len()).
func (q *Queue) At(i int) int64 { return q.buf[(q.head+i)%len(q.buf)] }

// Snapshot returns the queue contents oldest-first. The returned slice is
// freshly allocated and safe to retain.
func (q *Queue) Snapshot() []int64 {
	out := make([]int64, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}

// Clone returns an independent copy of the queue. Used by the
// linearizability search when it forks the specification state.
func (q *Queue) Clone() *Queue {
	return &Queue{buf: q.Snapshot(), head: 0, n: q.n}
}

// Equal reports whether two queues hold the same sequence of elements.
func (q *Queue) Equal(o *Queue) bool {
	if q.n != o.n {
		return false
	}
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)%len(q.buf)] != o.buf[(o.head+i)%len(o.buf)] {
			return false
		}
	}
	return true
}

// Fingerprint returns an order-sensitive hash of the queue contents,
// usable as a memoization key by state-space searches.
func (q *Queue) Fingerprint() uint64 {
	// FNV-1a over the element stream; include length to separate
	// prefixes from full sequences.
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(q.n))
	for i := 0; i < q.n; i++ {
		mix(uint64(q.buf[(q.head+i)%len(q.buf)]))
	}
	return h
}

func (q *Queue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]int64, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}
