package core

import (
	"sync"
	"testing"
	"time"

	"wfq/internal/yield"
)

// batchQueue is testQueue plus the batch operations; both core flavours
// satisfy it.
type batchQueue interface {
	testQueue
	EnqueueBatch(tid int, vs []int64)
	DequeueBatch(tid int, dst []int64) int
}

// batchBuilders covers every configuration whose batch code paths differ:
// slow chains (no fast path), fast chains, arena-backed nodes, and both
// hazard-pointer flavours. "cache" once enabled descriptor reuse, which
// the in-place operation records made moot; it builds the base queue.
func batchBuilders(nthreads int) map[string]func() batchQueue {
	return map[string]func() batchQueue{
		"base":       func() batchQueue { return New[int64](nthreads) },
		"opt12":      func() batchQueue { return New[int64](nthreads, WithVariant(VariantOpt12)) },
		"cache":      func() batchQueue { return New[int64](nthreads) },
		"fast":       func() batchQueue { return New[int64](nthreads, WithFastPath(0)) },
		"fast-p1":    func() batchQueue { return New[int64](nthreads, WithFastPath(1)) },
		"fast-arena": func() batchQueue { return New[int64](nthreads, WithFastPath(0), WithArena(8)) },
		"hp":         func() batchQueue { return NewHP[int64](nthreads, 8, 4) },
		"hp-fast":    func() batchQueue { return NewHP[int64](nthreads, 8, 4, WithFastPath(0)) },
		"hp-arena":   func() batchQueue { return NewHP[int64](nthreads, 8, 4, WithFastPath(0), WithArena(8)) },
	}
}

// TestEnqueueBatchSequentialFIFO drives batches of every interesting
// width (empty, single, short, longer than an arena block) through each
// configuration and checks the drain order is the concatenation of the
// batches.
func TestEnqueueBatchSequentialFIFO(t *testing.T) {
	widths := []int{0, 1, 2, 3, 8, 17}
	for name, build := range batchBuilders(2) {
		t.Run(name, func(t *testing.T) {
			q := build()
			var want []int64
			next := int64(0)
			for _, k := range widths {
				vs := make([]int64, k)
				for j := range vs {
					vs[j] = next
					next++
				}
				q.EnqueueBatch(0, vs)
				want = append(want, vs...)
			}
			if q.Len() != len(want) {
				t.Fatalf("Len() = %d, want %d", q.Len(), len(want))
			}
			for i, w := range want {
				if v, ok := q.Dequeue(1); !ok || v != w {
					t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, w)
				}
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("phantom element after drain")
			}
		})
	}
}

// TestDequeueBatchSequential pins the dequeue-side contract: FIFO order
// into dst, partial fill on under-full queues, zero on empty, and a
// second call resuming where the first stopped.
func TestDequeueBatchSequential(t *testing.T) {
	for name, build := range batchBuilders(2) {
		t.Run(name, func(t *testing.T) {
			q := build()
			dst := make([]int64, 4)
			if n := q.DequeueBatch(0, dst); n != 0 {
				t.Fatalf("empty DequeueBatch = %d", n)
			}
			if n := q.DequeueBatch(0, nil); n != 0 {
				t.Fatalf("nil-dst DequeueBatch = %d", n)
			}
			for i := int64(0); i < 10; i++ {
				q.Enqueue(0, i)
			}
			for call, want := range [][]int64{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}} {
				n := q.DequeueBatch(1, dst)
				if n != len(want) {
					t.Fatalf("call %d: n = %d, want %d", call, n, len(want))
				}
				for j, w := range want {
					if dst[j] != w {
						t.Fatalf("call %d: dst[%d] = %d, want %d", call, j, dst[j], w)
					}
				}
			}
			if err := checkAfterDrain(q); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkAfterDrain runs the quiescent invariant checker where available
// (the GC flavour only; the HP flavour has no quiescent checker).
func checkAfterDrain(q batchQueue) error {
	if c, ok := q.(*Queue[int64]); ok {
		return c.CheckInvariants()
	}
	return nil
}

// TestBatchRoundTripRecycling pushes several enqueue/dequeue-batch rounds
// through the pooled HP flavours so chain nodes retire and come back; a
// value resurfacing or going missing would mean the chain append violated
// the reclamation protocol.
func TestBatchRoundTripRecycling(t *testing.T) {
	for _, name := range []string{"hp", "hp-fast", "hp-arena"} {
		build := batchBuilders(2)[name]
		t.Run(name, func(t *testing.T) {
			q := build()
			vs := make([]int64, 6)
			dst := make([]int64, 6)
			for round := int64(0); round < 20; round++ {
				for j := range vs {
					vs[j] = round*100 + int64(j)
				}
				q.EnqueueBatch(0, vs)
				if n := q.DequeueBatch(1, dst); n != len(vs) {
					t.Fatalf("round %d: drained %d of %d", round, n, len(vs))
				}
				for j := range vs {
					if dst[j] != vs[j] {
						t.Fatalf("round %d: dst[%d] = %d, want %d", round, j, dst[j], vs[j])
					}
				}
			}
			if err := checkAfterDrain(q); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// decodeBatch splits the drained value encoding of the contiguity tests:
// tid in the high 32 bits, per-thread sequence number in the low 32.
func decodeBatch(v int64) (tid int, seq int) {
	return int(v >> 32), int(v & 0xffffffff)
}

// TestBatchContiguityStress is the tentpole's ordering guarantee under
// real concurrency: producers batch-enqueue concurrently, then a
// single-threaded drain checks that every batch occupies CONSECUTIVE
// positions in the FIFO — no element of any other operation interleaves
// — and that each producer's batches appear in program order.
func TestBatchContiguityStress(t *testing.T) {
	const nthreads, k = 4, 5
	batches := stressSize(300)
	for name, build := range batchBuilders(nthreads) {
		t.Run(name, func(t *testing.T) {
			q := build()
			var wg sync.WaitGroup
			for w := 0; w < nthreads; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					vs := make([]int64, k)
					for b := 0; b < batches; b++ {
						for j := range vs {
							vs[j] = int64(tid)<<32 | int64(b*k+j)
						}
						q.EnqueueBatch(tid, vs)
					}
				}(w)
			}
			wg.Wait()
			drained := make([]int64, 0, nthreads*batches*k)
			for {
				v, ok := q.Dequeue(0)
				if !ok {
					break
				}
				drained = append(drained, v)
			}
			if len(drained) != nthreads*batches*k {
				t.Fatalf("drained %d of %d", len(drained), nthreads*batches*k)
			}
			lastSeq := make([]int, nthreads)
			for i := range lastSeq {
				lastSeq[i] = -1
			}
			for i, v := range drained {
				tid, seq := decodeBatch(v)
				if seq != lastSeq[tid]+1 {
					t.Fatalf("thread %d: seq %d after %d (per-thread FIFO broken)", tid, seq, lastSeq[tid])
				}
				lastSeq[tid] = seq
				if seq%k != 0 {
					// Interior element: its predecessor in the SAME batch
					// must be the immediately preceding drained element.
					ptid, pseq := decodeBatch(drained[i-1])
					if ptid != tid || pseq != seq-1 {
						t.Fatalf("batch torn at drain[%d]: t%d#%d preceded by t%d#%d",
							i, tid, seq, ptid, pseq)
					}
				}
			}
			if err := checkAfterDrain(q); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchMixedStress runs batch producers against batch consumers with
// a tiny patience (constant fast/slow crossings) and checks conservation:
// every value exactly once. Run under -race by the tier-1 gate.
func TestBatchMixedStress(t *testing.T) {
	const nthreads, k = 4, 4
	batches := stressSize(500)
	builders := map[string]func() batchQueue{
		"fast-p1":  func() batchQueue { return New[int64](2*nthreads, WithFastPath(1), WithArena(0)) },
		"hp-fast1": func() batchQueue { return NewHP[int64](2*nthreads, 8, 4, WithFastPath(1)) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			q := build()
			var wg sync.WaitGroup
			seen := make([]map[int64]bool, nthreads)
			for w := 0; w < nthreads; w++ {
				wg.Add(2)
				go func(tid int) {
					defer wg.Done()
					vs := make([]int64, k)
					for b := 0; b < batches; b++ {
						for j := range vs {
							vs[j] = int64(tid)<<32 | int64(b*k+j)
						}
						q.EnqueueBatch(tid, vs)
					}
				}(w)
				seen[w] = make(map[int64]bool, batches*k)
				go func(slot int) {
					defer wg.Done()
					tid := nthreads + slot
					dst := make([]int64, k)
					// Each consumer drains exactly its quota: a batch
					// capped only by k could overshoot it once partial
					// batches misalign, leaving another consumer spinning
					// on an empty queue short of its own.
					for drained := 0; drained < batches*k; {
						n := q.DequeueBatch(tid, dst[:min(k, batches*k-drained)])
						for _, v := range dst[:n] {
							if seen[slot][v] {
								t.Errorf("value %d dequeued twice", v)
								return
							}
							seen[slot][v] = true
						}
						drained += n
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			total := 0
			for slot, m := range seen {
				for v := range m {
					for other := slot + 1; other < nthreads; other++ {
						if seen[other][v] {
							t.Fatalf("value %d dequeued by two consumers", v)
						}
					}
				}
				total += len(m)
			}
			if want := nthreads * batches * k; total != want {
				t.Fatalf("consumed %d of %d", total, want)
			}
			if err := checkAfterDrain(q); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- Choreographed chain races (run under -race by the tier-1 gate) ----

// TestHelperCompletesSlowChain parks a slow-path batch enqueuer right
// after its chain's append CAS (half-published: elements linearized, tail
// stale, descriptor pending). A single enqueue from another thread must
// finish the whole operation — complete the descriptor and swing tail
// past the ENTIRE chain via the descriptor's chainTail — before its own
// append can land.
func TestHelperCompletesSlowChain(t *testing.T) {
	const owner, helper = 0, 1
	q := New[int64](2) // no fast path: EnqueueBatch publishes a descriptor
	parked, resume, restore := parkOnce(t, yield.KPAfterAppend, owner)
	defer restore()
	done := make(chan struct{})
	go func() {
		q.EnqueueBatch(owner, []int64{1, 2, 3})
		close(done)
	}()
	<-parked

	q.Enqueue(helper, 4)
	if q.isStillPending(owner, 1<<62) {
		t.Fatal("helper did not complete the half-published chain's descriptor")
	}
	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch enqueuer never returned")
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if v, ok := q.Dequeue(0); !ok || v != want {
			t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, want)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoBatchersRaceOnAppend parks one fast-path batcher immediately
// before its append CAS while a second batcher publishes its chain at the
// same tail. The loser must detect the lost race, retry behind the
// winner, and both batches must stay internally contiguous.
func TestTwoBatchersRaceOnAppend(t *testing.T) {
	const loser, winner = 0, 1
	q := New[int64](2, WithFastPath(8), WithMetrics())
	parked, resume, restore := parkOnce(t, yield.KPFastBeforeAppend, loser)
	defer restore()
	done := make(chan struct{})
	go func() {
		q.EnqueueBatch(loser, []int64{10, 11, 12})
		close(done)
	}()
	<-parked

	q.EnqueueBatch(winner, []int64{20, 21, 22})
	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("losing batcher never returned")
	}
	if got := q.Metrics().Thread(loser).AppendCASFailures; got == 0 {
		t.Fatal("expected the parked batcher to lose its append CAS")
	}
	for i, want := range []int64{20, 21, 22, 10, 11, 12} {
		if v, ok := q.Dequeue(0); !ok || v != want {
			t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, want)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelperStepsThroughFastChain parks a fast-path batcher after its
// append CAS but before any tail advancement: tail points BEFORE a
// dangling three-node descriptor-less chain. A concurrent enqueue must
// walk tail through the chain node by node (each looks like a single
// fast-path node) and append behind it; the resuming appender's
// chase-walk must then cope with tail having moved into (or past) its
// chain. Both core flavours are covered — the HP side additionally
// checks the hazard-pointer tail-stepping rewrite against a live chain.
func TestHelperStepsThroughFastChain(t *testing.T) {
	builders := map[string]func() batchQueue{
		"gc": func() batchQueue { return New[int64](2, WithFastPath(8)) },
		"hp": func() batchQueue { return NewHP[int64](2, 8, 4, WithFastPath(8)) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			const owner, helper = 0, 1
			q := build()
			parked, resume, restore := parkOnce(t, yield.KPChainAfterAppend, owner)
			defer restore()
			done := make(chan struct{})
			go func() {
				q.EnqueueBatch(owner, []int64{1, 2, 3})
				close(done)
			}()
			<-parked

			helped := make(chan struct{})
			go func() {
				q.Enqueue(helper, 4)
				close(helped)
			}()
			select {
			case <-helped:
			case <-time.After(10 * time.Second):
				t.Fatal("enqueue stuck behind a dangling chain")
			}
			close(resume)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("batch enqueuer never returned")
			}
			for i, want := range []int64{1, 2, 3, 4} {
				if v, ok := q.Dequeue(0); !ok || v != want {
					t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, want)
				}
			}
			if err := checkAfterDrain(q); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDequeueBatchRacesChainAppend parks a batch enqueuer mid-publish
// (tail behind the chain) and lets a batch dequeuer drain through that
// window: the dequeuer's first==last probe must help finish the append
// rather than report empty, and it must deliver the chain in order.
func TestDequeueBatchRacesChainAppend(t *testing.T) {
	const owner, consumer = 0, 1
	q := New[int64](2, WithFastPath(8))
	parked, resume, restore := parkOnce(t, yield.KPChainAfterAppend, owner)
	defer restore()
	done := make(chan struct{})
	go func() {
		q.EnqueueBatch(owner, []int64{1, 2, 3})
		close(done)
	}()
	<-parked

	dst := make([]int64, 3)
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("drained only %d of 3 through the append window", got)
		}
		got += q.DequeueBatch(consumer, dst[got:])
	}
	for j, want := range []int64{1, 2, 3} {
		if dst[j] != want {
			t.Fatalf("dst[%d] = %d, want %d", j, dst[j], want)
		}
	}
	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch enqueuer never returned")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMetricsAndArenaStats pins the observability surface: batch
// counters account elements and invocations, and arena-backed queues
// report block/get traffic.
func TestBatchMetricsAndArenaStats(t *testing.T) {
	q := New[int64](2, WithMetrics(), WithArena(4))
	q.EnqueueBatch(0, []int64{1, 2, 3, 4, 5})
	q.EnqueueBatch(0, []int64{6}) // width 1 routes to Enqueue, not the batch path
	q.EnqueueBatch(0, nil)        // no-op
	dst := make([]int64, 4)
	if n := q.DequeueBatch(1, dst); n != 4 {
		t.Fatalf("DequeueBatch = %d, want 4", n)
	}
	s := q.Metrics().Total()
	if s.BatchEnqs != 1 || s.BatchEnqElems != 5 {
		t.Fatalf("batch enq counters = %d/%d, want 1/5", s.BatchEnqs, s.BatchEnqElems)
	}
	if s.BatchDeqs != 1 || s.BatchDeqElems != 4 {
		t.Fatalf("batch deq counters = %d/%d, want 1/4", s.BatchDeqs, s.BatchDeqElems)
	}
	blocks, gets := q.ArenaStats()
	if gets != 6 { // 5 chain nodes + 1 single slow-path node
		t.Fatalf("arena gets = %d, want 6", gets)
	}
	if blocks != 2 { // block size 4
		t.Fatalf("arena blocks = %d, want 2", blocks)
	}
	if b, g := New[int64](1).ArenaStats(); b != 0 || g != 0 {
		t.Fatalf("no-arena ArenaStats = %d/%d, want 0/0", b, g)
	}
}
