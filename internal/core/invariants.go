package core

import "fmt"

// CheckInvariants validates the queue's structural invariants at a
// QUIESCENT point (no operations in flight). It returns the first
// violation found, or nil. Tests call it after stress runs; it is the
// executable form of the §5 structural claims:
//
//  1. head is reachable from itself to tail following next pointers
//     (the list is connected and acyclic up to tail);
//  2. at most one node dangles beyond tail (the paper's single-dangling
//     invariant from the lazy enqueue);
//  3. no operation record is pending, and none holds a node (the
//     owner clears node and chainTail when its operation returns);
//  4. the list from head does not cycle;
//  5. the sentinel's deqTid is either unset, names a valid thread, or is
//     the fast-path claim mark (fastTID).
func (q *Queue[T]) CheckInvariants() error {
	head := q.headRef.Load()
	tail := q.tailRef.Load()
	if head == nil || tail == nil {
		return fmt.Errorf("core: nil head or tail")
	}

	// Walk from head; tail must be reachable; the walk must terminate
	// (cycle detection via a step bound derived from a first pass with
	// the two-pointer trick).
	slow, fast := head, head
	for {
		if fast == nil {
			break
		}
		fast = fast.next.Load()
		if fast == nil {
			break
		}
		fast = fast.next.Load()
		slow = slow.next.Load()
		if slow == fast && slow != nil {
			return fmt.Errorf("core: cycle in the underlying list")
		}
	}

	seenTail := false
	danglingBeyondTail := 0
	steps := 0
	for cur := head; cur != nil; cur = cur.next.Load() {
		steps++
		if cur == tail {
			seenTail = true
		} else if seenTail {
			danglingBeyondTail++
		}
	}
	if !seenTail {
		return fmt.Errorf("core: tail not reachable from head (%d nodes walked)", steps)
	}
	if danglingBeyondTail > 1 {
		return fmt.Errorf("core: %d nodes dangle beyond tail, max 1 allowed", danglingBeyondTail)
	}

	for i := range q.state {
		rec := &q.state[i]
		c := rec.ctl.Load()
		if ctlPending(c) {
			return fmt.Errorf("core: thread %d still pending at quiescence (phase %d)", i, rec.phase.Load())
		}
		if c&stMask > stDoneDeqEmpty {
			return fmt.Errorf("core: thread %d record in unknown state %d", i, c&stMask)
		}
		if rec.node.Load() != nil || rec.chainTail.Load() != nil {
			return fmt.Errorf("core: thread %d record still holds a node at quiescence", i)
		}
	}

	if dt := int(head.deqTid.Load()); dt != noTIDInt && dt != fastTIDInt && (dt < 0 || dt >= q.nthreads) {
		return fmt.Errorf("core: sentinel deqTid %d out of range", dt)
	}
	return nil
}
