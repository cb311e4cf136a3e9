package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfq/internal/xrand"
	"wfq/internal/yield"
)

// The tests in this file pin down the linearization of the VariantFast
// fast path against the three-step slow path: fast appends vs slow
// help_finish_enq, fast deqTid claims vs slow Stage 2 claims, and the
// patience-exhaustion fallback. They use the yield hooks to park threads
// in the exact windows the ALGORITHM.md argument reasons about.

// slowEnqueue drives tid's enqueue through the helping protocol
// unconditionally — the fallback branch of Enqueue, without the fast
// attempts — so tests can stage a slow-path operation on a fast queue.
func slowEnqueue(q *Queue[int64], tid int, v int64) {
	rec := &q.state[tid]
	ph := q.nextPhase()
	rec.node.Store(newNode(v, int32(tid)))
	rec.publish(ph, stPendEnq)
	q.help(tid, ph, true)
	q.helpFinishEnq(tid)
	rec.node.Store(nil)
}

// slowDequeue is the dequeue-side analogue of slowEnqueue.
func slowDequeue(q *Queue[int64], tid int) (int64, bool) {
	rec := &q.state[tid]
	ph := q.nextPhase()
	rec.node.Store(q.headRef.Load())
	rec.publish(ph, stPendDeq)
	q.help(tid, ph, false)
	q.helpFinishDeq(tid)
	return q.deqResult(rec)
}

// parkOnce installs a yield hook that parks the first arrival of thread
// tid at point p, signalling parked and blocking until resume is closed.
func parkOnce(t *testing.T, p yield.Point, tid int) (parked, resume chan struct{}, restore func()) {
	t.Helper()
	parked = make(chan struct{})
	resume = make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(pt yield.Point, caller, _ int) {
		if pt == p && caller == tid {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	return parked, resume, func() { yield.Set(prev) }
}

// TestFastEnqueuerHelpsSlowEnqueue: a slow-path enqueuer appends its node
// (Line 74) and is suspended before help_finish_enq; a fast-path enqueuer
// arriving behind the dangling node must complete the slow operation's
// descriptor (step 2) and fix tail (step 3) before appending its own node
// — the fast path participates in the helping protocol, it does not skip
// it.
func TestFastEnqueuerHelpsSlowEnqueue(t *testing.T) {
	const slow, fast = 1, 0
	q := New[int64](2, WithFastPath(8), WithMetrics())

	parked, resume, restore := parkOnce(t, yield.KPAfterAppend, slow)
	defer restore()
	slowDone := make(chan struct{})
	go func() {
		slowEnqueue(q, slow, 11)
		close(slowDone)
	}()
	<-parked

	// The fast enqueuer finds the dangling slow node: its help_finish_enq
	// must flip the slow descriptor's pending flag and advance tail, then
	// its own append lands behind the slow node.
	q.Enqueue(fast, 22)
	if q.isStillPending(slow, 1<<62) {
		t.Fatal("fast path did not complete the suspended slow enqueue's descriptor")
	}
	if got := q.Metrics().Thread(fast).FastEnqHits; got != 1 {
		t.Fatalf("fast enqueue hits = %d, want 1", got)
	}

	close(resume)
	select {
	case <-slowDone:
	case <-time.After(10 * time.Second):
		t.Fatal("slow enqueuer never returned")
	}
	for i, want := range []int64{11, 22} {
		if v, ok := q.Dequeue(0); !ok || v != want {
			t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, want)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowHelpersTolerateFastNode: a fast-path enqueuer appends a node
// with enqTid = noTID and is suspended before fixing tail. A slow-path
// enqueue arriving behind it must advance tail past the descriptor-less
// node (there is nothing to complete) and proceed; without the noTID
// branch in help_finish_enq it would retry forever.
func TestSlowHelpersTolerateFastNode(t *testing.T) {
	const fast, slow = 0, 1
	q := New[int64](2, WithFastPath(8), WithMetrics())

	parked, resume, restore := parkOnce(t, yield.KPFastAfterAppend, fast)
	defer restore()
	fastDone := make(chan struct{})
	go func() {
		q.Enqueue(fast, 11)
		close(fastDone)
	}()
	<-parked

	slowDone := make(chan struct{})
	go func() {
		slowEnqueue(q, slow, 22)
		close(slowDone)
	}()
	select {
	case <-slowDone:
	case <-time.After(10 * time.Second):
		t.Fatal("slow enqueue stuck behind a descriptor-less fast-path node")
	}

	close(resume)
	select {
	case <-fastDone:
	case <-time.After(10 * time.Second):
		t.Fatal("fast enqueuer never returned")
	}
	for i, want := range []int64{11, 22} {
		if v, ok := q.Dequeue(0); !ok || v != want {
			t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, want)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastDequeueRacesSlowDeqTidCAS: a slow-path dequeuer completes
// Stage 1 (descriptor pointed at the sentinel) and is suspended just
// before its Stage 2 deqTid claim; a fast-path dequeuer claims the same
// sentinel first. The slow claim must fail, the slow operation must move
// on to the next sentinel, and the two dequeues must return distinct
// values.
func TestFastDequeueRacesSlowDeqTidCAS(t *testing.T) {
	const fast, slow, filler = 0, 1, 2
	q := New[int64](3, WithFastPath(8), WithMetrics())
	q.Enqueue(filler, 100)
	q.Enqueue(filler, 200)

	parked, resume, restore := parkOnce(t, yield.KPBeforeDeqTidCAS, slow)
	defer restore()
	slowGot := make(chan int64, 1)
	go func() {
		v, _ := slowDequeue(q, slow)
		slowGot <- v
	}()
	<-parked

	v, ok := q.Dequeue(fast)
	if !ok || v != 100 {
		t.Fatalf("fast dequeue = (%d,%v), want (100,true)", v, ok)
	}
	if got := q.Metrics().Thread(fast).FastDeqHits; got != 1 {
		t.Fatalf("fast dequeue hits = %d, want 1", got)
	}

	close(resume)
	select {
	case sv := <-slowGot:
		if sv != 200 {
			t.Fatalf("slow dequeue = %d, want 200 (value 100 dequeued twice?)", sv)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow dequeuer never returned")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowDequeueToleratesFastClaim is the reverse race: a fast-path
// dequeuer has claimed the sentinel (deqTid = fastTID) and is suspended
// before fixing head. A concurrent dequeue must advance head past the
// locked, descriptor-less sentinel and take the NEXT element; without the
// fastTID branch in help_finish_deq it would spin forever on a head that
// never moves.
func TestSlowDequeueToleratesFastClaim(t *testing.T) {
	const fast, other, filler = 0, 1, 2
	q := New[int64](3, WithFastPath(2), WithMetrics())
	q.Enqueue(filler, 100)
	q.Enqueue(filler, 200)

	parked, resume, restore := parkOnce(t, yield.KPFastAfterDeqTidCAS, fast)
	defer restore()
	fastGot := make(chan int64, 1)
	go func() {
		v, _ := q.Dequeue(fast)
		fastGot <- v
	}()
	<-parked

	otherGot := make(chan int64, 1)
	go func() {
		v, _ := q.Dequeue(other)
		otherGot <- v
	}()
	select {
	case v := <-otherGot:
		if v != 200 {
			t.Fatalf("concurrent dequeue = %d, want 200", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dequeue stuck behind a fast-claimed sentinel")
	}

	close(resume)
	select {
	case v := <-fastGot:
		if v != 100 {
			t.Fatalf("fast dequeue = %d, want 100", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast dequeuer never returned")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackEngagesUnderForcedContention forces patience exhaustion on
// both operation kinds with patience = 1 and asserts, via the metrics
// counters, that the fallback actually ran (the wait-free machinery is
// reachable, not dead code) and that the operations still complete.
func TestFallbackEngagesUnderForcedContention(t *testing.T) {
	const victim, other = 0, 1

	t.Run("enqueue", func(t *testing.T) {
		q := New[int64](2, WithFastPath(1), WithMetrics())
		parked, resume, restore := parkOnce(t, yield.KPFastBeforeAppend, victim)
		defer restore()
		done := make(chan struct{})
		go func() {
			q.Enqueue(victim, 22)
			close(done)
		}()
		<-parked
		q.Enqueue(other, 11) // invalidates the victim's tail snapshot
		close(resume)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("victim enqueue never completed")
		}
		s := q.Metrics().Thread(victim)
		if s.FastFallbacks != 1 || s.FastEnqHits != 0 {
			t.Fatalf("fallbacks=%d fastHits=%d, want 1/0", s.FastFallbacks, s.FastEnqHits)
		}
		if s.AppendCASFailures == 0 {
			t.Fatal("expected a lost append race")
		}
		for i, want := range []int64{11, 22} {
			if v, ok := q.Dequeue(0); !ok || v != want {
				t.Fatalf("drain[%d] = (%d,%v), want %d", i, v, ok, want)
			}
		}
	})

	t.Run("dequeue", func(t *testing.T) {
		q := New[int64](2, WithFastPath(1), WithMetrics())
		q.Enqueue(other, 11)
		q.Enqueue(other, 22)
		parked, resume, restore := parkOnce(t, yield.KPFastBeforeDeqTidCAS, victim)
		defer restore()
		got := make(chan int64, 1)
		go func() {
			v, _ := q.Dequeue(victim)
			got <- v
		}()
		<-parked
		if v, ok := q.Dequeue(other); !ok || v != 11 {
			t.Fatalf("concurrent dequeue = (%d,%v), want 11", v, ok)
		}
		close(resume)
		select {
		case v := <-got:
			if v != 22 {
				t.Fatalf("victim dequeue = %d, want 22", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("victim dequeue never completed")
		}
		s := q.Metrics().Thread(victim)
		if s.FastFallbacks != 1 || s.FastDeqHits != 0 {
			t.Fatalf("fallbacks=%d fastHits=%d, want 1/0", s.FastFallbacks, s.FastDeqHits)
		}
		if s.DeqClaimFailures == 0 {
			t.Fatal("expected a lost deqTid claim race")
		}
	})
}

// TestFastSlowMixedStress runs the pairs workload with patience = 1 and a
// Gosched hook at every fast-path window, so operations constantly cross
// the fast/slow boundary in both directions on the same queue. Run under
// -race (the tier-1 gate does) this checks the memory ordering of the
// combined engine; the conservation check and invariants catch lost or
// duplicated elements.
func TestFastSlowMixedStress(t *testing.T) {
	const nthreads = 8
	perThread := stressSize(3000)
	q := New[int64](nthreads, WithFastPath(1), WithMetrics())

	prev := yield.Set(func(p yield.Point, _, _ int) {
		switch p {
		case yield.KPFastBeforeAppend, yield.KPFastBeforeDeqTidCAS, yield.KPFastAfterAppend:
			runtime.Gosched()
		}
	})
	defer yield.Set(prev)

	var wg sync.WaitGroup
	var consumed sync.Map
	var dups, consumedN atomic.Int64
	for w := 0; w < nthreads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				q.Enqueue(tid, int64(tid*perThread+i))
				if v, ok := q.Dequeue(tid); ok {
					if _, dup := consumed.LoadOrStore(v, tid); dup {
						dups.Add(1)
					}
					consumedN.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	yield.Set(prev)
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		if _, dup := consumed.LoadOrStore(v, -1); dup {
			dups.Add(1)
		}
		consumedN.Add(1)
	}
	if d := dups.Load(); d != 0 {
		t.Fatalf("%d duplicated values", d)
	}
	if got, want := consumedN.Load(), int64(nthreads*perThread); got != want {
		t.Fatalf("consumed %d of %d values", got, want)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tot := q.Metrics().Total()
	if tot.FastHits() == 0 {
		t.Error("no operation completed on the fast path")
	}
	if tot.FastFallbacks == 0 {
		t.Error("no operation fell back to the helping protocol under forced contention")
	}
	t.Logf("fast hits=%d fallbacks=%d (%.1f%% fallback rate)",
		tot.FastHits(), tot.FastFallbacks, 100*tot.FallbackRate())
}

// TestValidationChecksWithDescriptorCacheStress is named for the two
// §3.3 knobs it used to combine. The in-place operation records made
// both the only behaviour: completion CASes run only from a pending word
// (the validation check), and nothing is allocated, so nothing is left to
// cache. It stresses the base variant, whose help-everyone traversal
// maximizes redundant helpers and therefore failed record CASes. The
// tier-1 gate runs this under -race.
func TestValidationChecksWithDescriptorCacheStress(t *testing.T) {
	const nthreads = 8
	perThread := stressSize(3000)
	q := New[int64](nthreads, WithMetrics())

	var wg sync.WaitGroup
	var consumed sync.Map
	var dups, consumedN atomic.Int64
	for w := 0; w < nthreads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(uint64(tid) + 1)
			produced := 0
			for produced < perThread {
				if rng.Bool() {
					q.Enqueue(tid, int64(tid*perThread+produced))
					produced++
				} else if v, ok := q.Dequeue(tid); ok {
					if _, dup := consumed.LoadOrStore(v, tid); dup {
						dups.Add(1)
					}
					consumedN.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		if _, dup := consumed.LoadOrStore(v, -1); dup {
			dups.Add(1)
		}
		consumedN.Add(1)
	}
	if d := dups.Load(); d != 0 {
		t.Fatalf("%d duplicated values", d)
	}
	if got, want := consumedN.Load(), int64(nthreads*perThread); got != want {
		t.Fatalf("consumed %d of %d values", got, want)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathMetricsAndAccessors pins the configuration surface: the
// variant name is the figure series name, Patience reports the bound,
// and the fast counters account for every uncontended operation.
func TestFastPathMetricsAndAccessors(t *testing.T) {
	q := New[int64](4, WithFastPath(0), WithMetrics())
	if q.VariantOf() != VariantFast || q.Name() != "fast WF" {
		t.Fatalf("variant %v name %q", q.VariantOf(), q.Name())
	}
	if q.Patience() != DefaultPatience {
		t.Fatalf("patience %d, want DefaultPatience (%d)", q.Patience(), DefaultPatience)
	}
	if p := New[int64](1, WithFastPath(3)).Patience(); p != 3 {
		t.Fatalf("patience %d, want 3", p)
	}
	if p := New[int64](1).Patience(); p != 0 {
		t.Fatalf("patience %d on a non-fast queue, want 0", p)
	}
	if got := (Variant(VariantFast)).String(); got != "fast WF" {
		t.Fatalf("VariantFast.String() = %q", got)
	}

	const ops = 100
	for i := int64(0); i < ops; i++ {
		q.Enqueue(0, i)
		if v, ok := q.Dequeue(0); !ok || v != i {
			t.Fatalf("(%d,%v)", v, ok)
		}
	}
	s := q.Metrics().Thread(0)
	if s.FastEnqHits != ops || s.FastDeqHits != ops || s.FastFallbacks != 0 {
		t.Fatalf("uncontended counters: %+v", s)
	}
	if s.FastHits() != 2*ops {
		t.Fatalf("FastHits() = %d", s.FastHits())
	}
	if r := s.FallbackRate(); r != 0 {
		t.Fatalf("FallbackRate() = %f", r)
	}
	// Empty fast dequeue is still a fast hit.
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("phantom element")
	}
	if s = q.Metrics().Thread(0); s.FastDeqHits != ops+1 {
		t.Fatalf("empty dequeue not counted as fast: %+v", s)
	}
}

// TestHPFastPath smoke-tests the hazard-pointer variant's fast path:
// sequential FIFO behaviour, node recycling still works, and the name
// reflects the configuration.
func TestHPFastPath(t *testing.T) {
	q := NewHP[int64](4, 8, 4, WithFastPath(0))
	if q.Name() != "fast WF+HP" {
		t.Fatalf("name %q", q.Name())
	}
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 64; i++ {
			q.Enqueue(int(i)%4, i)
		}
		for i := int64(0); i < 64; i++ {
			if v, ok := q.Dequeue(int(i) % 4); !ok || v != i {
				t.Fatalf("round %d: (%d,%v), want %d", round, v, ok, i)
			}
		}
		if _, ok := q.Dequeue(0); ok {
			t.Fatal("phantom element")
		}
	}
	hits, _, _ := q.PoolStats()
	if hits == 0 {
		t.Error("fast-path dequeues never recycled a node through the pool")
	}
}
