package wfq_test

import (
	"fmt"
	"sync"

	"wfq"
)

// Explicit thread ids suit code that already has a worker-pool index.
func ExampleQueue_Enqueue() {
	q := wfq.New[int](4)
	q.Enqueue(0, 1) // worker 0
	q.Enqueue(1, 2) // worker 1
	v1, _ := q.Dequeue(2)
	v2, _ := q.Dequeue(3)
	fmt.Println(v1, v2)
	// Output: 1 2
}

// Handles manage thread ids for dynamically created goroutines.
func ExampleQueue_Handle() {
	q := wfq.New[int](8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := q.Handle()
			if err != nil {
				panic(err)
			}
			defer h.Release()
			h.Enqueue(i)
		}(i)
	}
	wg.Wait()
	sum := 0
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		sum += v
	}
	fmt.Println(sum)
	// Output: 6
}

// The base variant and the §3.3 helping knobs are selected with options.
func ExampleWithVariant() {
	q := wfq.New[string](4,
		wfq.WithVariant(wfq.Base),
		wfq.WithHelpChunk(2),
	)
	q.Enqueue(0, "configured")
	v, _ := q.Dequeue(1)
	fmt.Println(v)
	// Output: configured
}

// NewHP builds the hazard-pointer variant, which recycles nodes through
// per-thread pools instead of relying on the garbage collector.
func ExampleNewHP() {
	q := wfq.NewHP[int](2, 64)
	for i := 0; i < 100; i++ {
		q.Enqueue(0, i)
		q.Dequeue(0)
	}
	hits, _, _ := q.PoolStats()
	fmt.Println(hits > 0)
	// Output: true
}
