package wfq

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfq/internal/lincheck"
	"wfq/internal/waiter"
	"wfq/internal/xrand"
)

// waitFor spins until cond holds, failing the test after a generous
// deadline — the deterministic replacement for flat sleeps in the
// blocking tests (a sleep that is "usually long enough" flakes on a
// loaded CI machine; a condition probe cannot).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// awaitWaiters blocks until the eventcount reports at least n registered
// waiters. Registration (EventCount.Register) happens before the park
// and is the event the no-lost-wakeup protocol keys on, so this is
// exactly the producer-side rendezvous the wake tests need — no timing
// assumption about when the goroutine physically parks.
func awaitWaiters(t *testing.T, ec *waiter.EventCount, n int) {
	t.Helper()
	waitFor(t, "consumer to register as a waiter", func() bool { return ec.Waiters() >= n })
}

func TestCloseSemantics(t *testing.T) {
	q := New[int](4)
	q.Enqueue(0, 1)
	q.Enqueue(0, 2)
	if err := q.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if err := q.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	// Enqueues after close fail without publishing.
	if err := q.TryEnqueue(1, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryEnqueue after close: %v, want ErrClosed", err)
	}
	// Pending elements remain dequeuable — blocking and non-blocking.
	if v, err := q.DequeueCtx(context.Background(), 1); err != nil || v != 1 {
		t.Fatalf("DequeueCtx on closed non-empty: (%d, %v)", v, err)
	}
	if v, ok := q.Dequeue(1); !ok || v != 2 {
		t.Fatalf("Dequeue on closed non-empty: (%d, %v)", v, ok)
	}
	// Drained: ErrClosed.
	if _, err := q.DequeueCtx(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("DequeueCtx on drained: %v, want ErrClosed", err)
	}
}

func TestEnqueuePanicsAfterClose(t *testing.T) {
	q := New[int](2)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on closed queue did not panic")
		}
	}()
	q.Enqueue(0, 1)
}

func TestDequeueCtxCancellationAndDeadline(t *testing.T) {
	q := New[int](2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.DequeueCtx(ctx, 0)
		done <- err
	}()
	awaitWaiters(t, q.g.EC(), 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not wake the blocked dequeue")
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer dcancel()
	if _, err := q.DequeueCtx(dctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestDequeueCtxWakesOnEnqueue(t *testing.T) {
	for _, shards := range []int{1, 4} {
		q := New[int](4, WithShards(shards))
		got := make(chan int, 1)
		go func() {
			v, err := q.DequeueCtx(context.Background(), 0)
			if err != nil {
				t.Errorf("DequeueCtx: %v", err)
			}
			got <- v
		}()
		awaitWaiters(t, q.g.EC(), 1)
		if err := q.TryEnqueue(1, 42); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("shards=%d: got %d", shards, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("shards=%d: enqueue did not wake the parked consumer", shards)
		}
	}
}

func TestDequeueBatchCtx(t *testing.T) {
	q := New[int](4, WithShards(4))
	dst := make([]int, 8)
	done := make(chan int, 1)
	go func() {
		n, err := q.DequeueBatchCtx(context.Background(), 0, dst)
		if err != nil {
			t.Errorf("DequeueBatchCtx: %v", err)
		}
		done <- n
	}()
	awaitWaiters(t, q.g.EC(), 1)
	if err := q.TryEnqueueBatch(1, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-done:
		if n == 0 {
			t.Fatal("batch woke empty")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch enqueue did not wake the parked batch consumer")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		n, err := q.DequeueBatchCtx(context.Background(), 0, dst)
		if err != nil {
			if n != 0 || !errors.Is(err, ErrClosed) {
				t.Fatalf("(%d, %v)", n, err)
			}
			break
		}
	}
}

func TestHPQueueBlocking(t *testing.T) {
	q := NewHP[int](4, 0)
	got := make(chan int, 1)
	go func() {
		v, err := q.DequeueCtx(context.Background(), 0)
		if err != nil {
			t.Errorf("DequeueCtx: %v", err)
		}
		got <- v
	}()
	awaitWaiters(t, q.g.EC(), 1)
	if err := q.TryEnqueue(1, 7); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HP enqueue did not wake the parked consumer")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.TryEnqueue(1, 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryEnqueue after close: %v", err)
	}
	if _, err := q.DequeueCtx(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained HP DequeueCtx: %v", err)
	}

	// The plain Enqueue goes through the same gate as TryEnqueue: it
	// wakes a parked consumer, and on a closed queue it panics without
	// publishing — as does EnqueueBatch.
	t.Run("plain-enqueue-wakes", func(t *testing.T) {
		q := NewHP[int](4, 0)
		got := make(chan int, 1)
		go func() {
			v, err := q.DequeueCtx(context.Background(), 0)
			if err != nil {
				t.Errorf("DequeueCtx: %v", err)
			}
			got <- v
		}()
		awaitWaiters(t, q.g.EC(), 1)
		q.Enqueue(1, 9)
		select {
		case v := <-got:
			if v != 9 {
				t.Fatalf("got %d", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("plain HP Enqueue did not wake the parked consumer")
		}
	})
	t.Run("enqueue-after-close-panics", func(t *testing.T) {
		q := NewHP[int](4, 0)
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		for name, enq := range map[string]func(){
			"Enqueue":      func() { q.Enqueue(1, 10) },
			"EnqueueBatch": func() { q.EnqueueBatch(1, []int{11, 12}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on closed HP queue did not panic", name)
					}
				}()
				enq()
			}()
		}
		if v, ok := q.Dequeue(0); ok {
			t.Fatalf("closed HP queue published %d", v)
		}
	})
}

// TestCloseDrainConcurrent closes while producers and blocking
// consumers are live: every successfully enqueued value must be
// delivered exactly once before consumers see ErrClosed.
func TestCloseDrainConcurrent(t *testing.T) {
	const producers, consumers = 3, 3
	for _, tc := range []struct {
		name string
		new  func() *Queue[int64]
	}{
		{"New", func() *Queue[int64] { return New[int64](producers + consumers) }},
		{"New+WithShards(4)", func() *Queue[int64] { return New[int64](producers+consumers, WithShards(4)) }},
		{"New+WithRing(0)", func() *Queue[int64] { return New[int64](producers+consumers, WithRing(0)) }},
		{"NewHP", func() *Queue[int64] { return NewHP[int64](producers+consumers, 0) }},
	} {
		q := tc.new()
		var next atomic.Int64
		var accepted, delivered atomic.Int64
		var seen sync.Map
		var pwg, cwg sync.WaitGroup
		stop := make(chan struct{})
		for p := 0; p < producers; p++ {
			pwg.Add(1)
			go func(tid int) {
				defer pwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := q.TryEnqueue(tid, next.Add(1)); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("TryEnqueue: %v", err)
						}
						return
					}
					accepted.Add(1)
				}
			}(p)
		}
		for c := 0; c < consumers; c++ {
			cwg.Add(1)
			go func(tid int) {
				defer cwg.Done()
				for {
					v, err := q.DequeueCtx(context.Background(), tid)
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("DequeueCtx: %v", err)
						}
						return
					}
					if _, dup := seen.LoadOrStore(v, tid); dup {
						t.Errorf("value %d delivered twice", v)
					}
					delivered.Add(1)
				}
			}(producers + c)
		}
		// Close only once the run demonstrably has live traffic on both
		// sides (was a flat 50ms sleep, which proved nothing on a slow
		// machine and wasted time on a fast one).
		waitFor(t, "pre-close churn", func() bool {
			return accepted.Load() >= 500 && delivered.Load() >= 1
		})
		// Close races the producers: they stop via ErrClosed.
		close(stop)
		if err := q.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		pwg.Wait()
		done := make(chan struct{})
		go func() { cwg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: consumers hung after close", tc.name)
		}
		if accepted.Load() != delivered.Load() {
			t.Fatalf("%s: accepted %d != delivered %d", tc.name, accepted.Load(), delivered.Load())
		}
	}
}

// TestHandleGenerationRegression pins the Release fix: a waiter parked
// under a released lease must come back with ErrReleased — and must NOT
// consume the wakeup (or the element) belonging to the id's next lease.
func TestHandleGenerationRegression(t *testing.T) {
	q := New[int](2) // two ids: one to re-lease, one for the producer
	h1, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := h1.DequeueCtx(context.Background())
		res <- err
	}()
	awaitWaiters(t, q.g.EC(), 1)
	// The misuse under test: the lease is released while its waiter is
	// still parked on another goroutine.
	h1.Release()
	select {
	case err := <-res:
		if !errors.Is(err, ErrReleased) {
			t.Fatalf("stale waiter returned %v, want ErrReleased", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not wake the stale waiter")
	}

	// The id's next lease gets its own wakeups and its own elements.
	// The namespace doesn't promise reuse order, so lease both free ids
	// and pick the one that is h1's id reborn; the other is the producer.
	ha, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	h2, prod := ha, hb
	if hb.TID() == h1.TID() {
		h2, prod = hb, ha
	}
	if h2.TID() != h1.TID() {
		t.Fatalf("expected id reuse, got %d then %d/%d", h1.TID(), ha.TID(), hb.TID())
	}
	got := make(chan int, 1)
	go func() {
		v, err := h2.DequeueCtx(context.Background())
		if err != nil {
			t.Errorf("new lease DequeueCtx: %v", err)
		}
		got <- v
	}()
	awaitWaiters(t, q.g.EC(), 1)
	if err := prod.TryEnqueue(77); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 77 {
			t.Fatalf("new lease got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("new lease's wakeup went missing")
	}
	h2.Release()
	// Stale handle operations keep failing.
	if err := h1.TryEnqueue(1); !errors.Is(err, ErrReleased) && err == nil {
		t.Log("TryEnqueue through stale handle is unchecked by design (non-blocking path)")
	}
	if _, err := h1.DequeueCtx(context.Background()); !errors.Is(err, ErrReleased) {
		t.Fatalf("stale DequeueCtx: %v, want ErrReleased", err)
	}
}

// TestCloseLinearizability records a concurrent history of tracked
// enqueues racing one Close, then checks the close-after-drain
// specification on it:
//
//  1. an enqueue invoked after Close returned must have failed;
//  2. an enqueue that failed with ErrClosed must have completed after
//     Close was invoked (close cannot reject operations that finished
//     before anyone asked to close);
//  3. conservation: the post-close drain returns exactly the accepted
//     values; and
//  4. the accepted-enqueue + drain sub-history is linearizable against
//     the sequential FIFO spec (drain order preserved).
func TestCloseLinearizability(t *testing.T) {
	const producers = 4
	const ops = 40
	for round := 0; round < 20; round++ {
		q := New[int64](producers + 1)
		rec := lincheck.NewRecorder(producers+1, ops+4)

		type enqObs struct {
			v        int64
			inv, res int64
			ok       bool
		}
		obs := make([][]enqObs, producers)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := xrand.New(uint64(round)*7919 + uint64(tid) + 1)
				for i := 0; i < ops; i++ {
					v := int64(tid)<<32 | int64(i)
					inv := rec.Now()
					err := q.TryEnqueue(tid, v)
					res := rec.Now()
					obs[tid] = append(obs[tid], enqObs{v: v, inv: inv, res: res, ok: err == nil})
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("TryEnqueue: %v", err)
						return
					}
					if rng.Bool() {
						// jitter so the close lands mid-stream
					}
				}
			}(p)
		}
		closeInv := rec.Now()
		if err := q.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		closeRes := rec.Now()
		wg.Wait()

		// Drain through the blocking path, recording each delivery.
		var drains []enqObs
		for {
			inv := rec.Now()
			v, err := q.DequeueCtx(context.Background(), producers)
			res := rec.Now()
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("drain: %v", err)
				}
				break
			}
			drains = append(drains, enqObs{v: v, inv: inv, res: res, ok: true})
		}

		accepted := map[int64]bool{}
		var hist []lincheck.Op
		for tid := range obs {
			for _, e := range obs[tid] {
				if e.ok {
					if e.inv > closeRes {
						t.Fatalf("round %d: enqueue of %d invoked after Close returned, yet succeeded", round, e.v)
					}
					accepted[e.v] = true
					hist = append(hist, lincheck.Op{
						TID: tid, Kind: lincheck.Enq, Arg: e.v, OK: true,
						Shard: -1, Inv: e.inv, Res: e.res,
					})
				} else if e.res < closeInv {
					t.Fatalf("round %d: enqueue of %d rejected before Close was invoked", round, e.v)
				}
			}
		}
		if len(drains) != len(accepted) {
			t.Fatalf("round %d: accepted %d values, drained %d", round, len(accepted), len(drains))
		}
		for _, d := range drains {
			if !accepted[d.v] {
				t.Fatalf("round %d: drained %d which was never accepted", round, d.v)
			}
			hist = append(hist, lincheck.Op{
				TID: producers, Kind: lincheck.Deq, Ret: d.v, OK: true,
				Shard: -1, Inv: d.inv, Res: d.res,
			})
		}
		for i := range hist {
			hist[i].ID = i
		}
		var c lincheck.Checker
		resu, err := c.Check(hist)
		if err != nil {
			t.Fatalf("round %d: checker: %v", round, err)
		}
		if resu == lincheck.NotLinearizable {
			t.Fatalf("round %d: close/drain history not linearizable", round)
		}
	}
}
