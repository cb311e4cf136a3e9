package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfq/internal/yield"
)

// TestLine149Line150SuspensionWindow is the dequeue-side mirror of the
// Line 93/94 test: a helper that completed the owner's descriptor
// (Line 149) and stalled before the head CAS (Line 150) must not block
// the owner or subsequent dequeues — anyone can fix head.
func TestLine149Line150SuspensionWindow(t *testing.T) {
	const owner = 0
	const helper = 1
	q := New[int64](2)
	q.Enqueue(1, 10)
	q.Enqueue(1, 20)

	// Step 1: park the owner immediately after it locks the sentinel
	// (successful Line 135 CAS), before any completion runs.
	ownerParked := make(chan struct{})
	ownerResume := make(chan struct{})
	var ownerOnce sync.Once
	prev := yield.Set(func(p yield.Point, caller, _ int) {
		if p == yield.KPAfterDeqTidCAS && caller == owner {
			ownerOnce.Do(func() {
				close(ownerParked)
				<-ownerResume
			})
		}
	})
	defer yield.Set(prev)

	ownerGot := make(chan int64, 1)
	go func() {
		v, _ := q.Dequeue(owner)
		ownerGot <- v
	}()
	<-ownerParked

	// Step 2: the helper performs an enqueue; its help pass completes
	// the owner's descriptor (Line 149) and parks before the head CAS
	// (Line 150).
	helperParked := make(chan struct{})
	helperResume := make(chan struct{})
	var helperOnce sync.Once
	yield.Set(func(p yield.Point, caller, _ int) {
		if p == yield.KPBeforeHeadCAS && caller == helper {
			helperOnce.Do(func() {
				close(helperParked)
				<-helperResume
			})
		}
	})
	helperDone := make(chan struct{})
	go func() {
		q.Enqueue(helper, 30)
		close(helperDone)
	}()
	<-helperParked

	// Step 3: resume the owner. Its deq() epilogue (Line 102) must fix
	// head itself; the owner returns 10 and the queue keeps working
	// while the helper is still parked in the Line 149/150 window.
	close(ownerResume)
	select {
	case v := <-ownerGot:
		if v != 10 {
			t.Fatalf("owner dequeued %d, want 10", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("owner never returned: head stayed broken (missing Line 102?)")
	}
	done2 := make(chan int64, 1)
	go func() {
		v, _ := q.Dequeue(owner)
		done2 <- v
	}()
	select {
	case v := <-done2:
		if v != 20 {
			t.Fatalf("second dequeue got %d, want 20", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subsequent dequeue blocked by parked helper")
	}

	// Step 4: release the helper; its stale head CAS fails harmlessly.
	close(helperResume)
	select {
	case <-helperDone:
	case <-time.After(10 * time.Second):
		t.Fatal("helper never returned")
	}
	if v, ok := q.Dequeue(owner); !ok || v != 30 {
		t.Fatalf("final element: (%d,%v), want 30", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("queue length %d, want 0", q.Len())
	}
}

// TestEmptyVsNonEmptyHelperRace forces the §3.2 Stage-1 race: one helper
// of a dequeue decided the queue is empty and is suspended just before
// recording the empty result (Line 120); meanwhile the queue becomes
// non-empty and another helper linearizes the same dequeue against the
// new element via Stage 1. The suspended helper's empty-CAS must fail
// (the descriptor pointer changed), so the operation returns the value —
// never both results, and never a lost element.
//
// Choreography (the "empty-seeing helper" is the victim itself, helping
// its own operation — the code path is identical for any helper):
//
//  1. N (tid 2) starts Enqueue(77) and parks after publishing its
//     descriptor, before appending — the queue is still empty.
//  2. The victim (tid 0) starts Dequeue; its help pass reaches its own
//     entry first, sees the empty queue, and parks right before the
//     Line 120 empty-completion CAS.
//  3. N resumes and completes: 77 is now in the queue. (N does not help
//     the victim: N's phase predates the victim's operation.)
//  4. H (tid 1) enqueues 88; its help pass finds the victim's pending
//     dequeue, sees a NON-empty queue, and linearizes it via Stage 1 +
//     Line 135: the victim's dequeue returns 77.
//  5. The victim resumes; its stale empty-CAS fails; it must return 77.
func TestEmptyVsNonEmptyHelperRace(t *testing.T) {
	const victim = 0
	const helperH = 1
	const enqN = 2
	q := New[int64](3)

	// Step 1: park N before its own append.
	nParked := make(chan struct{})
	nResume := make(chan struct{})
	var nOnce sync.Once
	prev := yield.Set(func(p yield.Point, caller, _ int) {
		if p == yield.KPEnqRetry && caller == enqN {
			nOnce.Do(func() {
				close(nParked)
				<-nResume
			})
		}
	})
	defer yield.Set(prev)
	nDone := make(chan struct{})
	go func() {
		q.Enqueue(enqN, 77)
		close(nDone)
	}()
	<-nParked

	// Step 2: park the victim at its own empty-completion CAS.
	vParked := make(chan struct{})
	vResume := make(chan struct{})
	var vOnce sync.Once
	yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.KPBeforeEmptyCAS && caller == victim && owner == victim {
			vOnce.Do(func() {
				close(vParked)
				<-vResume
			})
		}
	})
	victimGot := make(chan struct {
		v  int64
		ok bool
	}, 1)
	go func() {
		v, ok := q.Dequeue(victim)
		victimGot <- struct {
			v  int64
			ok bool
		}{v, ok}
	}()
	<-vParked

	// Step 3: N completes its enqueue; 77 enters the queue.
	close(nResume)
	select {
	case <-nDone:
	case <-time.After(10 * time.Second):
		t.Fatal("N never completed its enqueue")
	}

	// Step 4: H's operation helps the victim on the non-empty queue.
	q.Enqueue(helperH, 88)
	if q.isStillPending(victim, 1<<62) {
		t.Fatal("victim's dequeue not helped on the non-empty queue")
	}

	// Step 5: the victim's stale empty-CAS must lose.
	close(vResume)
	res := <-victimGot
	if !res.ok || res.v != 77 {
		t.Fatalf("victim returned (%d,%v), want (77,true): empty result raced past Stage 1", res.v, res.ok)
	}
	// 88 must still be there; nothing lost or duplicated.
	if v, ok := q.Dequeue(helperH); !ok || v != 88 {
		t.Fatalf("(%d,%v), want 88", v, ok)
	}
	if _, ok := q.Dequeue(helperH); ok {
		t.Fatal("phantom element")
	}
}

// TestPostClaimStage1Bump stages the one window the in-place operation
// records add (ALGORITHM.md, "In-place operation records"): a Stage 1
// version bump that loaded the owner's record before another helper
// claimed the sentinel, and lands after that helper loaded the record
// for its Line 149 completion. The completion CAS then fails; unless it
// is retried while head still points at the claimed sentinel, Line 150
// advances head past a sentinel whose operation is still pending, the
// operation claims a second sentinel, and that element is lost.
//
// Choreography on the base variant (every operation helps all older
// pending ones), owner O = 0, helpers A = 1 and B = 2:
//
//  1. O publishes Dequeue and parks at its first help scan.
//  2. B (Enqueue) helps O: Stage 1 bump, parks before the claim.
//  3. A (Enqueue) helps O: loads the bumped record, sees the sentinel
//     unclaimed, parks before its own Stage 1 CAS.
//  4. B claims the sentinel for O, loads the record in help_finish_deq,
//     parks before the Line 149 CAS.
//  5. A's bump lands after the claim; A parks before its (failing) claim.
//  6. B's Line 149 CAS fails; B must retry and complete O before it
//     advances head.
//
// Every wait is bounded, so a build without the retry fails here rather
// than hanging.
func TestPostClaimStage1Bump(t *testing.T) {
	const owner, helperA, helperB = 0, 1, 2
	q := New[int64](3)
	q.Enqueue(helperB, 10)
	q.Enqueue(helperB, 20)

	type spot struct {
		p      yield.Point
		caller int
	}
	type gate struct {
		once           sync.Once
		parked, resume chan struct{}
	}
	gates := map[spot]*gate{}
	for _, s := range []spot{
		{yield.KPHelpScan, owner},
		{yield.KPBeforeDeqTidCAS, helperB},
		{yield.KPBeforeStage1CAS, helperA},
		{yield.KPBeforeStateCASDeq, helperB},
		{yield.KPBeforeDeqTidCAS, helperA},
	} {
		gates[s] = &gate{parked: make(chan struct{}), resume: make(chan struct{})}
	}
	var violation atomic.Bool
	prev := yield.Set(func(p yield.Point, caller, _ int) {
		if p == yield.KPBeforeHeadCAS {
			// Line 150 may pass a sentinel claimed for O only once
			// O's record is done.
			if q.headRef.Load().deqTid.Load() == owner && q.isStillPending(owner, 1<<62) {
				violation.Store(true)
			}
			return
		}
		if g := gates[spot{p, caller}]; g != nil {
			g.once.Do(func() {
				close(g.parked)
				<-g.resume
			})
		}
	})
	defer yield.Set(prev)
	released := map[*gate]bool{}
	release := func(s spot) {
		g := gates[s]
		if !released[g] {
			released[g] = true
			close(g.resume)
		}
	}
	defer func() {
		for s := range gates {
			release(s)
		}
	}()
	await := func(s spot, what string) {
		t.Helper()
		select {
		case <-gates[s].parked:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never reached %s", what, s.p)
		}
	}
	finish := func(done <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned", what)
		}
	}

	ownerGot := make(chan int64, 1)
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		v, ok := q.Dequeue(owner)
		if !ok {
			v = -1
		}
		ownerGot <- v
	}()
	await(spot{yield.KPHelpScan, owner}, "owner") // 1

	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		q.Enqueue(helperB, 30)
	}()
	await(spot{yield.KPBeforeDeqTidCAS, helperB}, "helper B") // 2

	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		q.Enqueue(helperA, 40)
	}()
	await(spot{yield.KPBeforeStage1CAS, helperA}, "helper A") // 3

	release(spot{yield.KPBeforeDeqTidCAS, helperB})
	await(spot{yield.KPBeforeStateCASDeq, helperB}, "helper B") // 4

	release(spot{yield.KPBeforeStage1CAS, helperA})
	await(spot{yield.KPBeforeDeqTidCAS, helperA}, "helper A") // 5

	release(spot{yield.KPBeforeStateCASDeq, helperB}) // 6
	finish(bDone, "helper B")
	if violation.Load() {
		t.Error("head passed the sentinel claimed for the owner while its record was pending")
	}

	release(spot{yield.KPBeforeDeqTidCAS, helperA})
	finish(aDone, "helper A")
	release(spot{yield.KPHelpScan, owner})
	finish(ownerDone, "owner")
	if v := <-ownerGot; v != 10 {
		t.Errorf("owner dequeued %d, want 10", v)
	}

	// Conservation: 20 first (FIFO), then both helpers' values, each once.
	var rest []int64
	for {
		v, ok := q.Dequeue(helperB)
		if !ok {
			break
		}
		rest = append(rest, v)
	}
	if len(rest) != 3 || rest[0] != 20 || rest[1]+rest[2] != 70 || rest[1] == rest[2] {
		t.Fatalf("remaining elements %v, want [20 30 40] (30 and 40 in either order)", rest)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
