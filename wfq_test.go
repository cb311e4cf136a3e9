package wfq

import (
	"fmt"
	"sync"
	"testing"

	"wfq/internal/tid"
)

func TestFacadeBasics(t *testing.T) {
	q := New[string](4)
	if q.MaxThreads() != 4 {
		t.Fatalf("MaxThreads %d", q.MaxThreads())
	}
	q.Enqueue(0, "a")
	q.Enqueue(1, "b")
	if q.Len() != 2 {
		t.Fatalf("Len %d", q.Len())
	}
	if v, ok := q.Dequeue(2); !ok || v != "a" {
		t.Fatalf("(%q,%v)", v, ok)
	}
	if v, ok := q.Dequeue(3); !ok || v != "b" {
		t.Fatalf("(%q,%v)", v, ok)
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("empty dequeue succeeded")
	}
}

func TestFacadeVariants(t *testing.T) {
	for _, v := range []Variant{Base, Opt1, Opt2, Opt12} {
		q := New[int64](2, WithVariant(v))
		q.Enqueue(0, int64(v))
		if got, ok := q.Dequeue(1); !ok || got != int64(v) {
			t.Fatalf("variant %v: (%d,%v)", v, got, ok)
		}
	}
	// Options compose.
	q := New[int64](3, WithVariant(Base), WithHelpChunk(2))
	q.Enqueue(0, 5)
	if v, ok := q.Dequeue(1); !ok || v != 5 {
		t.Fatalf("(%d,%v)", v, ok)
	}
}

func TestFacadeFastPath(t *testing.T) {
	q := New[string](4, WithFastPath(0))
	for round := 0; round < 2; round++ {
		q.Enqueue(0, "a")
		q.Enqueue(1, "b")
		if v, ok := q.Dequeue(2); !ok || v != "a" {
			t.Fatalf("(%q,%v)", v, ok)
		}
		if v, ok := q.Dequeue(3); !ok || v != "b" {
			t.Fatalf("(%q,%v)", v, ok)
		}
		if _, ok := q.Dequeue(0); ok {
			t.Fatal("empty dequeue succeeded")
		}
	}
	// Explicit-patience and Variant-constant spellings also work.
	q2 := New[int64](2, WithFastPath(3))
	q2.Enqueue(0, int64(Fast))
	if v, ok := q2.Dequeue(1); !ok || v != int64(Fast) {
		t.Fatalf("(%d,%v)", v, ok)
	}
}

func TestFacadeSharded(t *testing.T) {
	q := New[string](4, WithShards(4), WithFastPath(0))
	if q.Shards() != 4 {
		t.Fatalf("Shards %d", q.Shards())
	}
	if un := New[string](4); un.Shards() != 1 {
		t.Fatalf("unsharded Shards %d", un.Shards())
	}
	// Sequential use with matched ticket streams round-trips FIFO.
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		q.Enqueue(0, s)
	}
	depths := q.ShardDepths()
	if len(depths) != 4 || depths[0] != 2 || depths[3] != 1 {
		t.Fatalf("depths %v", depths)
	}
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if v, ok := q.Dequeue(1); !ok || v != want {
			t.Fatalf("(%q,%v), want %q", v, ok, want)
		}
	}
	// The empty result is per-ticket: Shards() consecutive empties prove
	// the queue empty.
	for i := 0; i < q.Shards(); i++ {
		if _, ok := q.Dequeue(2); ok {
			t.Fatal("phantom element")
		}
	}
}

func TestFacadeBatchOps(t *testing.T) {
	for _, shards := range []int{1, 3} {
		q := New[int](2, WithShards(shards))
		q.EnqueueBatch(0, []int{1, 2, 3, 4, 5})
		if q.Len() != 5 {
			t.Fatalf("shards=%d: Len %d", shards, q.Len())
		}
		dst := make([]int, 6)
		n := q.DequeueBatch(1, dst)
		if n != 5 {
			t.Fatalf("shards=%d: batch got %d", shards, n)
		}
		for i := 0; i < n; i++ {
			if dst[i] != i+1 {
				t.Fatalf("shards=%d: dst=%v", shards, dst[:n])
			}
		}
		if q.Len() != 0 {
			t.Fatalf("shards=%d: residual %d", shards, q.Len())
		}
	}
	// Batches through handles.
	q := New[int](2, WithShards(2), WithFastPath(0))
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.EnqueueBatch([]int{10, 20, 30})
	dst := make([]int, 3)
	if n := h.DequeueBatch(dst); n != 3 || dst[0] != 10 || dst[2] != 30 {
		t.Fatalf("(n=%d, %v)", n, dst)
	}
}

func TestHandles(t *testing.T) {
	q := New[int](2)
	h1, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if h1.TID() == h2.TID() {
		t.Fatal("handles share a tid")
	}
	if _, err := q.Handle(); err != tid.ErrExhausted {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	h1.Enqueue(1)
	h2.Enqueue(2)
	if v, ok := h1.Dequeue(); !ok || v != 1 {
		t.Fatalf("(%d,%v)", v, ok)
	}
	h1.Release()
	h3, err := q.Handle() // the released id is reusable
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := h3.Dequeue(); !ok || v != 2 {
		t.Fatalf("(%d,%v)", v, ok)
	}
	h2.Release()
	h3.Release()
}

func TestManyGoroutinesViaHandles(t *testing.T) {
	const maxThreads = 8
	const goroutines = 64
	const perG = 200
	q := New[int](maxThreads)
	sem := make(chan struct{}, maxThreads) // bound concurrency below the namespace size
	var wg sync.WaitGroup
	var sum, want int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			h, err := q.Handle()
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			defer h.Release()
			local := int64(0)
			for i := 0; i < perG; i++ {
				h.Enqueue(g*perG + i)
				if v, ok := h.Dequeue(); ok {
					local += int64(v)
				}
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		mu.Lock()
		sum += int64(v)
		mu.Unlock()
	}
	for i := 0; i < goroutines*perG; i++ {
		want += int64(i)
	}
	if sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
}

func TestHPFacade(t *testing.T) {
	q := NewHP[int64](2, 64)
	if q.MaxThreads() != 2 {
		t.Fatalf("MaxThreads %d", q.MaxThreads())
	}
	for i := int64(0); i < 500; i++ {
		q.Enqueue(0, i)
		if v, ok := q.Dequeue(0); !ok || v != i {
			t.Fatalf("(%d,%v) want %d", v, ok, i)
		}
	}
	hits, _, _ := q.PoolStats()
	if hits == 0 {
		t.Fatal("HP pool never reused nodes")
	}
}

func ExampleQueue() {
	q := New[string](4)
	h, _ := q.Handle()
	defer h.Release()
	h.Enqueue("hello")
	h.Enqueue("world")
	a, _ := h.Dequeue()
	b, _ := h.Dequeue()
	_, ok := h.Dequeue()
	fmt.Println(a, b, ok)
	// Output: hello world false
}
