package ring

import (
	"runtime"
	"sync"
	"testing"
)

// reachableSegments counts the distinct segments reachable from every
// reference the queue itself holds — head, tail, announcements, helping
// tickets, limbos and the free list — following next links. It is the
// queue's share of the live heap in segments: a bound on it is a bound
// on what the queue keeps from the GC.
func reachableSegments[T any](q *Queue[T]) int {
	seen := map[*segment[T]]bool{}
	var walk func(s *segment[T])
	walk = func(s *segment[T]) {
		for ; s != nil && !seen[s]; s = s.next.Load() {
			seen[s] = true
		}
	}
	walk(q.head.Load())
	walk(q.tail.Load())
	for i := range q.ann {
		walk(q.ann[i].p.Load())
	}
	for i := range q.recs {
		walk(q.recs[i].tSeg.Load())
	}
	for i := range q.local {
		for _, s := range q.local[i].limbo {
			walk(s)
		}
	}
	for i := range q.free {
		walk(q.free[i].p.Load())
	}
	return len(seen)
}

// staleAnnouncementRounds drives two tids from one goroutine: per round,
// tid 1 makes one pair on the current segment (leaving its announcement
// there) and tid 0 then runs a segment's worth of pairs, crossing the
// boundary and retiring the segment tid 1 still names — the stale
// announcement a busy peer leaves behind on every retirement.
func staleAnnouncementRounds(t *testing.T, q *Queue[int64], rounds int) {
	t.Helper()
	v := int64(0)
	pair := func(tid int) {
		q.Enqueue(tid, v)
		if got, ok := q.Dequeue(tid); !ok || got != v {
			t.Fatalf("pair %d on tid %d: got (%d,%v)", v, tid, got, ok)
		}
		v++
	}
	for r := 0; r < rounds; r++ {
		pair(1)
		for i := 0; i < q.SegSize(); i++ {
			pair(0)
		}
	}
}

// TestStaleAnnouncementRecycles: a segment still named by a peer's stale
// announcement at retirement waits in the retirer's limbo and is
// recycled at its next retirement, so allocation stops after warm-up
// and nothing is dropped. Dropping it instead (the pre-limbo rule) costs
// one fresh segment per boundary crossing.
func TestStaleAnnouncementRecycles(t *testing.T) {
	q := New[int64](2, 16)
	staleAnnouncementRounds(t, q, 20)
	warm := q.Stats()
	staleAnnouncementRounds(t, q, 400)
	st := q.Stats()
	if st.Allocated != warm.Allocated {
		t.Fatalf("allocated %d segments over 400 crossings after warm-up (%d → %d): %+v",
			st.Allocated-warm.Allocated, warm.Allocated, st.Allocated, st)
	}
	if st.Dropped != 0 {
		t.Fatalf("segments dropped to the GC: %+v", st)
	}
	if st.Recycled < 400 {
		t.Fatalf("recycled %d of 420 retirements: %+v", st.Recycled, st)
	}
}

// TestSlowOpDoesNotPinHistory is the heap-growth regression. A ticketed
// segment is dropped to the GC with its next link intact, so a record
// that kept naming its ticket segment after the request completed would
// keep every later dropped segment reachable from one slow operation
// long ago. Here tid 0 makes one slow pair and then only fast ones,
// while tid 1 makes a slow pair on every segment, so every segment is
// ticketed and dropped. The queue must still keep only a bounded number
// of segments reachable.
func TestSlowOpDoesNotPinHistory(t *testing.T) {
	q := New[int64](2, 16)
	slowPair := func(tid int, v int64) {
		q.enqueueSlow(tid, v)
		if got, ok := q.dequeueSlow(tid); !ok || got != v {
			t.Fatalf("slow pair on tid %d: got (%d,%v), want %d", tid, got, ok, v)
		}
	}
	slowPair(0, -1)
	const rounds = 500
	for r := 0; r < rounds; r++ {
		slowPair(1, int64(r))
		for i := 0; i < q.SegSize(); i++ {
			q.Enqueue(0, int64(i))
			if got, ok := q.Dequeue(0); !ok || got != int64(i) {
				t.Fatalf("round %d pair %d: got (%d,%v)", r, i, got, ok)
			}
		}
	}
	if st := q.Stats(); st.TicketDrops < rounds {
		t.Fatalf("%d ticketed drops over %d rounds: the history is not made of dropped segments: %+v",
			st.TicketDrops, rounds, st)
	}
	// Live chain, two announcements, two limbos and the free list.
	limit := 2 + 2 + 2*limboCap + FreeListCap
	if n := reachableSegments(q); n > limit {
		t.Fatalf("%d segments reachable after %d rounds, want <= %d", n, rounds, limit)
	}
}

// TestAllocationPlateauTwoGoroutines: two goroutines running
// enqueue/dequeue pairs on their own tids must stop allocating segments
// once the free list and limbos are warm. Each yields every few pairs
// so the two interleave at a fine grain even on one CPU: the retirer
// then usually finds the other's announcement still on the segment it
// unlinks. Only retirements a helping ticket pinned may still allocate.
func TestAllocationPlateauTwoGoroutines(t *testing.T) {
	const segSize = 64
	q := New[int64](2, segSize)
	run := func(crossings int) {
		var wg sync.WaitGroup
		for tid := 0; tid < 2; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := 0; i < crossings*segSize/2; i++ {
					q.Enqueue(tid, int64(i))
					q.Dequeue(tid)
					if i%16 == 0 {
						runtime.Gosched()
					}
				}
			}(tid)
		}
		wg.Wait()
	}
	run(50)
	warm := q.Stats()
	run(2000)
	st := q.Stats()
	grew := st.Allocated - warm.Allocated
	pinned := st.TicketDrops - warm.TicketDrops
	if grew > pinned+2 {
		t.Fatalf("allocated %d segments after warm-up (%d ticket drops): warm %+v, end %+v",
			grew, pinned, warm, st)
	}
	if dropped := (st.Dropped - st.TicketDrops) - (warm.Dropped - warm.TicketDrops); dropped > 2 {
		t.Fatalf("%d unticketed segments dropped after warm-up: %+v", dropped, st)
	}
}

// TestAnnouncementFollowsEntries: enter skips the announcement store
// when the slot already names the segment, so the slot must still name
// the segment each operation entered last — across boundary crossings
// on both ends — and a cleared slot must be announced again by the next
// operation. One tid drives everything, so after an enqueue the segment
// it entered last is the tail, and after a dequeue the head.
func TestAnnouncementFollowsEntries(t *testing.T) {
	q := New[int64](2, 4)
	ann := &q.ann[0].p
	check := func(op string, i int, want *segment[int64]) {
		t.Helper()
		if got := ann.Load(); got != want {
			t.Fatalf("%s %d: announcement %p, want last entered segment %p", op, i, got, want)
		}
	}
	crossings := 0
	head := q.head.Load()
	v := int64(0)
	for i := 0; i < 60; i++ {
		if i%7 == 3 {
			// A cleared slot (what a release hook would leave) must not
			// count as already announced.
			ann.Store(nil)
		}
		// Three enqueues then three dequeues: the two ends cross segment
		// boundaries at different operations.
		for k := 0; k < 3; k++ {
			q.Enqueue(0, v+int64(k))
			check("enqueue", i, q.tail.Load())
		}
		if i%7 == 5 {
			ann.Store(nil)
		}
		for k := 0; k < 3; k++ {
			if got, ok := q.Dequeue(0); !ok || got != v+int64(k) {
				t.Fatalf("dequeue %d: got (%d,%v), want %d", i, got, ok, v+int64(k))
			}
			check("dequeue", i, q.head.Load())
		}
		if h := q.head.Load(); h != head {
			crossings++
			head = h
		}
		v += 3
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("dequeue on a drained queue returned a value")
	}
	check("empty dequeue", 60, q.head.Load())
	if crossings < 30 {
		t.Fatalf("head crossed %d segment boundaries, want >= 30", crossings)
	}
}
