package wfq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wfq/internal/ring"
	"wfq/internal/sharded"
)

// TestFacadeRingConfig pins how New turns facade options into the ring
// engine it builds: the segment size, and the patience WithFastPath
// hands over (last-wins against WithVariant, as on the KP engine).
func TestFacadeRingConfig(t *testing.T) {
	ringOf := func(t *testing.T, q *Queue[int]) *ring.Queue[int] {
		t.Helper()
		r, ok := q.q.(*ring.Queue[int])
		if !ok {
			t.Fatalf("engine is %T, want *ring.Queue[int]", q.q)
		}
		return r
	}
	if r := ringOf(t, New[int](2, WithRing(16))); r.SegSize() != 16 {
		t.Fatalf("WithRing(16): SegSize %d", r.SegSize())
	}
	for _, tc := range []struct {
		name string
		opts []Option
		want int
	}{
		{"fastpath-then-ring", []Option{WithFastPath(3), WithRing(0)}, 3},
		{"ring-only", []Option{WithRing(0)}, ring.DefaultPatience},
		{"variant-after-fastpath", []Option{WithFastPath(3), WithVariant(Opt12), WithRing(0)}, ring.DefaultPatience},
	} {
		if p := ringOf(t, New[int](2, tc.opts...)).Patience(); p != tc.want {
			t.Errorf("%s: Patience %d, want %d", tc.name, p, tc.want)
		}
	}

	q := New[int](2, WithShards(4), WithRing(0), WithFastPath(3))
	sh, ok := q.q.(*sharded.Queue[int])
	if !ok || sh.Shards() != 4 {
		t.Fatalf("engine %T, want 4 ring shards", q.q)
	}
	for i := 0; i < sh.Shards(); i++ {
		r, ok := sh.Shard(i).(*ring.Queue[int])
		if !ok || r.Patience() != 3 {
			t.Fatalf("shard %d: %T, want a ring with patience 3", i, sh.Shard(i))
		}
	}
}

// TestFacadeRing covers the ring backend behind the public API: single
// global FIFO, first-class batches, and composition with WithShards
// (ring per shard under the ticket dispatcher).
func TestFacadeRing(t *testing.T) {
	q := New[string](4, WithRing(8))
	for _, s := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		q.Enqueue(0, s) // 9 elements over 8-slot segments: crosses a boundary
	}
	if q.Len() != 9 {
		t.Fatalf("Len %d", q.Len())
	}
	for _, want := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		if v, ok := q.Dequeue(1); !ok || v != want {
			t.Fatalf("(%q,%v), want %q", v, ok, want)
		}
	}
	if _, ok := q.Dequeue(2); ok {
		t.Fatal("phantom element")
	}

	// Engine options that don't apply to the ring are ignored, shards
	// compose.
	qs := New[int](4, WithShards(4), WithRing(8), WithFastPath(0))
	if qs.Shards() != 4 {
		t.Fatalf("Shards %d", qs.Shards())
	}
	qs.EnqueueBatch(0, []int{1, 2, 3, 4, 5})
	if depths := qs.ShardDepths(); len(depths) != 4 || depths[0] != 2 {
		t.Fatalf("depths %v", depths)
	}
	dst := make([]int, 6)
	if n := qs.DequeueBatch(1, dst); n != 5 {
		t.Fatalf("batch got %d: %v", n, dst[:n])
	}
	for i := 0; i < 5; i++ {
		if dst[i] != i+1 {
			t.Fatalf("dst=%v", dst[:5])
		}
	}

	// Batches through handles on the unsharded ring.
	qb := New[int](2, WithRing(0))
	h, err := qb.Handle()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.EnqueueBatch([]int{10, 20, 30})
	if n := h.DequeueBatch(dst[:3]); n != 3 || dst[0] != 10 || dst[2] != 30 {
		t.Fatalf("(n=%d, %v)", n, dst[:3])
	}
}

// TestFacadeRingBlocking exercises the PR-4 waiter layer over the ring
// backend: blocked consumers wake on enqueue, Close lets pending
// elements drain, and a drained closed queue reports ErrClosed.
func TestFacadeRingBlocking(t *testing.T) {
	q := New[int](4, WithRing(4))

	// A blocked DequeueCtx wakes on a later enqueue.
	got := make(chan int, 1)
	go func() {
		v, err := q.DequeueCtx(context.Background(), 1)
		if err != nil {
			t.Errorf("DequeueCtx: %v", err)
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park
	q.Enqueue(0, 41)
	select {
	case v := <-got:
		if v != 41 {
			t.Fatalf("woke with %d, want 41", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked consumer never woke on ring enqueue")
	}

	// Close with pending elements: drain across a segment boundary, then
	// ErrClosed.
	for i := 0; i < 6; i++ {
		q.Enqueue(0, i)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < 6; i++ {
		v, err := q.DequeueCtx(context.Background(), 2)
		if err != nil || v != i {
			t.Fatalf("drain %d: (%d, %v)", i, v, err)
		}
	}
	if _, err := q.DequeueCtx(context.Background(), 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained close: %v, want ErrClosed", err)
	}

	// Consumers parked at Close time drain concurrently with no loss.
	q2 := New[int](8, WithRing(4))
	const n = 100
	var sum int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				v, err := q2.DequeueCtx(context.Background(), tid)
				if err != nil {
					return // ErrClosed after drain
				}
				mu.Lock()
				sum += int64(v)
				mu.Unlock()
			}
		}(c)
	}
	for i := 1; i <= n; i++ {
		q2.Enqueue(4, i)
	}
	if err := q2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if sum != n*(n+1)/2 {
		t.Fatalf("drained sum %d, want %d", sum, n*(n+1)/2)
	}
}
