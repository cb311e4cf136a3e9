package core

import (
	"sync"
	"testing"
	"time"

	"wfq/internal/yield"
)

// Choreographed races for the core queue's helptree wiring (the ring
// backend's live in internal/ring/treehelp_test.go, the tree's own CAS
// races in internal/helptree).

// TestTreeHelpFrozenAnnounce freezes a slow enqueuer mid-Announce —
// descriptor public, leaf set, aggregates stale. The helper must
// complete the victim's enqueue through the ordinary descriptor scan
// (the tree is an accelerator, never a gate on helpability), and the
// victim's late-landing propagation must not resurrect the completed
// operation's announcement.
func TestTreeHelpFrozenAnnounce(t *testing.T) {
	const frozen, helper = 0, 1
	q := New[int64](2, WithVariant(VariantOpt12), WithHelpTree())

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.HTPropagate && caller == frozen {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(frozen, 42)
		close(done)
	}()
	<-parked

	if v, ok := q.Dequeue(helper); !ok || v != 42 {
		t.Fatalf("dequeue during frozen announce = (%d,%v), want (42,true)", v, ok)
	}

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never completed after helped finalize")
	}

	// The victim's resumed propagation advertised an already-decided
	// phase; subsequent helpers must retire it via ClearStale and keep
	// full function. Duplicate-free traffic is the observable.
	for i := int64(0); i < 100; i++ {
		q.Enqueue(helper, 1000+i)
		if v, ok := q.Dequeue(helper); !ok || v != 1000+i {
			t.Fatalf("helper op %d after propagation race = (%d,%v)", i, v, ok)
		}
	}
	if v, ok := q.Dequeue(helper); ok {
		t.Fatalf("duplicate delivery after frozen announce: %d", v)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeHelpTwoHelpersOneVictim parks a victim mid-announce and sends
// two helpers through helpOldest at once: both descend to the same leaf
// and both help the same descriptor; the phase-guarded CASes inside
// helpEnq make the completion exactly-once.
func TestTreeHelpTwoHelpersOneVictim(t *testing.T) {
	const frozen = 0
	q := New[int64](3, WithVariant(VariantOpt12), WithHelpTree())

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.HTPropagate && caller == frozen {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(frozen, 42)
		close(done)
	}()
	<-parked

	results := make(chan int64, 2)
	var wg sync.WaitGroup
	for h := 1; h <= 2; h++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			if v, ok := q.Dequeue(tid); ok {
				results <- v
			}
		}(h)
	}
	wg.Wait()
	close(results)

	var got []int64
	for v := range results {
		got = append(got, v)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("converging helpers delivered %v, want exactly [42]", got)
	}

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never completed")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeAllocParity is the PR's zero-alloc regression at the core
// level: attaching the helptree must not add a single allocation per
// operation — with a warm descriptor cache, the slow path's alloc count
// with the tree must equal the count without it (the tree itself is
// fully preallocated; see helptree's own TestZeroAlloc).
func TestTreeAllocParity(t *testing.T) {
	measure := func(opts ...Option) float64 {
		q := New[int64](1, opts...)
		for i := int64(0); i < 64; i++ { // warm up
			q.Enqueue(0, i)
			q.Dequeue(0)
		}
		return testing.AllocsPerRun(1000, func() {
			q.Enqueue(0, 7)
			q.Dequeue(0)
		})
	}
	base := []Option{WithVariant(VariantOpt12)}
	without := measure(append(base, WithoutHelpTree())...)
	with := measure(append(base, WithHelpTree())...)
	if with != without {
		t.Fatalf("helptree changes allocs/pair: %v with tree, %v without", with, without)
	}

	// Same parity on the gated fast path (tree defaults ON for
	// VariantFast): patience-8 ops that never go slow must stay at the
	// tree-free count too.
	fastWithout := measure(WithFastPath(DefaultPatience), WithoutHelpTree())
	fastWith := measure(WithFastPath(DefaultPatience))
	if fastWith != fastWithout {
		t.Fatalf("helptree changes fast-path allocs/pair: %v with tree, %v without", fastWith, fastWithout)
	}
}
