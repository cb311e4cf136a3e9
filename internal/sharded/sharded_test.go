package sharded

import (
	"sync"
	"testing"

	"wfq/internal/core"
	"wfq/internal/xrand"
)

// TestSequentialRoundRobin: single-threaded use of the sharded queue is
// exact FIFO as long as no empty probe interleaves (the enqueue and
// dequeue ticket streams then walk the same residue sequence).
func TestSequentialRoundRobin(t *testing.T) {
	q := New[int64](2, 3)
	for v := int64(0); v < 20; v++ {
		if ticket := q.EnqueueTicket(0, v); ticket != uint64(v) {
			t.Fatalf("value %d got ticket %d", v, ticket)
		}
	}
	if q.Len() != 20 {
		t.Fatalf("Len=%d", q.Len())
	}
	depths := q.ShardDepths()
	if len(depths) != 3 || depths[0] != 7 || depths[1] != 7 || depths[2] != 6 {
		t.Fatalf("depths=%v", depths)
	}
	for v := int64(0); v < 20; v++ {
		got, ok, ticket := q.DequeueTicket(1)
		if !ok || got != v || ticket != uint64(v) {
			t.Fatalf("dequeue = (%d,%v,t%d), want %d", got, ok, ticket, v)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("phantom element")
	}
}

// TestTicketBurnOnEmpty mirrors the model: an empty probe consumes its
// ticket, so a value enqueued into another shard needs a matching-residue
// ticket to surface.
func TestTicketBurnOnEmpty(t *testing.T) {
	q := New[int64](1, 2)
	q.Enqueue(0, 10) // ticket 0 -> shard 0
	if v, ok := q.Dequeue(0); !ok || v != 10 {
		t.Fatalf("(%d,%v)", v, ok)
	}
	if _, ok := q.Dequeue(0); ok { // ticket 1 -> shard 1: burn
		t.Fatal("shard 1 should be empty")
	}
	q.Enqueue(0, 20)               // ticket 1 -> shard 1
	if _, ok := q.Dequeue(0); ok { // ticket 2 -> shard 0: burn
		t.Fatal("shard 0 should be empty")
	}
	if v, ok := q.Dequeue(0); !ok || v != 20 { // ticket 3 -> shard 1
		t.Fatalf("(%d,%v), want 20", v, ok)
	}
	st := q.DispatchStats()
	if st.EnqTickets != 2 || st.DeqTickets != 4 || st.EmptyClaims != 2 {
		t.Fatalf("stats=%+v", st)
	}
}

// TestBatchTicketsAndFanout: one batch takes k consecutive tickets and
// fans out exactly like k singles; DequeueBatch compacts in ticket order.
func TestBatchTicketsAndFanout(t *testing.T) {
	q := New[int64](2, 4)
	if first := q.EnqueueBatchTicket(0, []int64{0, 1, 2, 3, 4, 5}); first != 0 {
		t.Fatalf("first ticket %d", first)
	}
	if first := q.EnqueueBatchTicket(0, []int64{6, 7}); first != 6 {
		t.Fatalf("second batch first ticket %d", first)
	}
	depths := q.ShardDepths()
	for i, d := range depths {
		if d != 2 {
			t.Fatalf("shard %d depth %d, want 2 (%v)", i, d, depths)
		}
	}
	dst := make([]int64, 8)
	if n := q.DequeueBatch(1, dst); n != 8 {
		t.Fatalf("batch dequeue got %d", n)
	}
	for i, v := range dst {
		if v != int64(i) {
			t.Fatalf("dst=%v", dst)
		}
	}
	// A batch over an empty queue burns all its tickets and reports 0.
	if n := q.DequeueBatch(1, dst[:5]); n != 0 {
		t.Fatalf("empty batch got %d", n)
	}
	if q.EnqueueBatchTicket(0, nil) != 0 || q.DequeueBatch(0, nil) != 0 {
		t.Fatal("zero-length batches must be no-ops")
	}
}

// TestNewOfMixedShards drives a frontend whose shards mix the GC fast
// queue, the plain Opt12 queue, and the hazard-pointer queue.
func TestNewOfMixedShards(t *testing.T) {
	const threads = 3
	shards := []Shard[int64]{
		core.New[int64](threads, core.WithFastPath(0)),
		core.NewHP[int64](threads, 0, 0),
		core.New[int64](threads, core.WithVariant(core.VariantOpt12)),
	}
	q := NewOf[int64](threads, shards)
	for v := int64(0); v < 30; v++ {
		q.Enqueue(int(v)%threads, v)
	}
	for v := int64(0); v < 30; v++ {
		got, ok := q.Dequeue(int(v) % threads)
		if !ok || got != v {
			t.Fatalf("(%d,%v), want %d", got, ok, v)
		}
	}
}

// drain empties the queue from thread tid: nshards consecutive empty
// probes prove emptiness once producers are quiescent (consecutive
// tickets visit every residue class).
func drain(q *Queue[int64], tid int) []int64 {
	var out []int64
	misses := 0
	for misses < q.Shards() {
		if v, ok := q.Dequeue(tid); ok {
			out = append(out, v)
			misses = 0
		} else {
			misses++
		}
	}
	return out
}

// TestConservation8x8 is the acceptance workload: 8 shards × 8 threads,
// every thread both enqueues and dequeues, and after a quiescent drain
// every enqueued value must have been dequeued exactly once. Runs under
// -race in the tier-1 gate.
func TestConservation8x8(t *testing.T) {
	const threads, shards, perThread = 8, 8, 400
	q := New[int64](threads, shards, core.WithFastPath(0))
	var consumed sync.Map
	var wg sync.WaitGroup
	dequeued := make([]int, threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(uint64(tid) + 1)
			for i := 0; i < perThread; i++ {
				v := int64(tid)<<32 | int64(i)
				q.Enqueue(tid, v)
				if rng.Bool() {
					if got, ok := q.Dequeue(tid); ok {
						if _, dup := consumed.LoadOrStore(got, tid); dup {
							t.Errorf("value %d dequeued twice", got)
						}
						dequeued[tid]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rest := drain(q, 0)
	for _, v := range rest {
		if _, dup := consumed.LoadOrStore(v, -1); dup {
			t.Fatalf("value %d dequeued twice (drain)", v)
		}
	}
	total := len(rest)
	for _, d := range dequeued {
		total += d
	}
	if want := threads * perThread; total != want {
		t.Fatalf("conservation: %d values out, %d in", total, want)
	}
	if q.Len() != 0 {
		t.Fatalf("residual Len=%d", q.Len())
	}
}

// TestStressMixedBatchSingle mixes EnqueueBatch/DequeueBatch with single
// ops across shards from every thread — the -race stress of the ticket
// dispatcher's batch arithmetic. Conservation and per-shard FIFO of the
// underlying queues are the checked invariants (FIFO is the shards' own
// -race-tested property; here we assert conservation and no duplicates).
func TestStressMixedBatchSingle(t *testing.T) {
	const threads, shards, iters = 6, 4, 300
	q := New[int64](threads, shards, core.WithFastPath(0))
	var consumed sync.Map
	var produced, eaten [8]int64 // per-thread counters, padded enough for a test
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(uint64(tid)*97 + 13)
			next := int64(0)
			newVal := func() int64 {
				next++
				return int64(tid)<<32 | next
			}
			dst := make([]int64, 5)
			for i := 0; i < iters; i++ {
				switch rng.Next() % 4 {
				case 0:
					q.Enqueue(tid, newVal())
					produced[tid]++
				case 1:
					k := int(rng.Next()%5) + 1
					vs := make([]int64, k)
					for j := range vs {
						vs[j] = newVal()
					}
					q.EnqueueBatch(tid, vs)
					produced[tid] += int64(k)
				case 2:
					if v, ok := q.Dequeue(tid); ok {
						if _, dup := consumed.LoadOrStore(v, tid); dup {
							t.Errorf("duplicate %d", v)
						}
						eaten[tid]++
					}
				default:
					k := int(rng.Next()%5) + 1
					n := q.DequeueBatch(tid, dst[:k])
					for _, v := range dst[:n] {
						if _, dup := consumed.LoadOrStore(v, tid); dup {
							t.Errorf("duplicate %d", v)
						}
					}
					eaten[tid] += int64(n)
				}
			}
		}(w)
	}
	wg.Wait()
	var in, out int64
	for i := 0; i < threads; i++ {
		in += produced[i]
		out += eaten[i]
	}
	out += int64(len(drain(q, 0)))
	if in != out {
		t.Fatalf("conservation: %d in, %d out", in, out)
	}
}
