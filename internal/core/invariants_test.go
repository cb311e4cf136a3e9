package core

import (
	"sync"
	"testing"
)

func TestCheckInvariantsFreshQueue(t *testing.T) {
	for _, f := range flavours() {
		q, isGC := f.make(4).(*Queue[int64])
		if !isGC {
			continue // HPQueue has its own structure
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("%s fresh: %v", f.name, err)
		}
	}
}

func TestCheckInvariantsAfterSequentialUse(t *testing.T) {
	q := New[int64](3)
	for i := int64(0); i < 100; i++ {
		q.Enqueue(int(i)%3, i)
	}
	for i := 0; i < 40; i++ {
		q.Dequeue(i % 3)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsAfterStress is the real consumer: every flavour's
// structure must be intact after heavy concurrency.
func TestCheckInvariantsAfterStress(t *testing.T) {
	for _, f := range flavours() {
		t.Run(f.name, func(t *testing.T) {
			tq := f.make(6)
			q, isGC := tq.(*Queue[int64])
			var wg sync.WaitGroup
			iters := stressSize(2000)
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tq.Enqueue(tid, int64(i))
						if i%3 != 0 {
							tq.Dequeue(tid)
						}
					}
				}(w)
			}
			wg.Wait()
			if isGC {
				if err := q.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			// Structure must also survive a full drain.
			for {
				if _, ok := tq.Dequeue(0); !ok {
					break
				}
			}
			if isGC {
				if err := q.CheckInvariants(); err != nil {
					t.Fatalf("after drain: %v", err)
				}
			}
		})
	}
}

// TestCheckInvariantsDetectsCorruption plants each class of corruption
// and requires detection — a checker that cannot fail is not a checker.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	t.Run("pending-at-quiescence", func(t *testing.T) {
		q := New[int64](2)
		q.state[1].phase.Store(9)
		q.state[1].ctl.Store(ctlWord(1, stPendEnq))
		if q.CheckInvariants() == nil {
			t.Fatal("pending record not detected")
		}
	})
	t.Run("double-dangling", func(t *testing.T) {
		q := New[int64](2)
		q.Enqueue(0, 1)
		// Manually append two nodes beyond tail.
		tail := q.tailRef.Load()
		n1 := newNode[int64](2, 0)
		n2 := newNode[int64](3, 0)
		tail.next.Store(n1)
		n1.next.Store(n2)
		if q.CheckInvariants() == nil {
			t.Fatal("double dangling not detected")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		q := New[int64](2)
		q.Enqueue(0, 1)
		tail := q.tailRef.Load()
		tail.next.Store(q.headRef.Load()) // close a loop
		if q.CheckInvariants() == nil {
			t.Fatal("cycle not detected")
		}
	})
	t.Run("tail-unreachable", func(t *testing.T) {
		q := New[int64](2)
		q.Enqueue(0, 1)
		orphan := newNode[int64](9, 0)
		q.tailRef.Store(orphan)
		if q.CheckInvariants() == nil {
			t.Fatal("unreachable tail not detected")
		}
	})
	t.Run("bad-deqTid", func(t *testing.T) {
		q := New[int64](2)
		q.headRef.Load().deqTid.Store(77)
		if q.CheckInvariants() == nil {
			t.Fatal("out-of-range deqTid not detected")
		}
	})
}
