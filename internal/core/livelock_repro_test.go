package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLine73RaceRegression is the regression test for the race the paper
// warns about in §3.2: "removing the check in Line 73 will break the
// linearizability. This is because a thread ti might pass the test in
// Line 68, get suspended, then resume and add an element to the queue,
// while at the same time, this element might have been already added".
//
// An early version of this port performed the pending check only at the
// help_enq loop top (before reading tail), and this workload reproduced
// the consequence within a few dozen rounds on one core: a suspended
// helper re-appended the freshly-published tail node after itself
// (N.next = N), creating a permanently dangling node whose owner
// descriptor had moved on, which no helper could ever fix — a livelock
// in which one worker spun in help_finish_enq forever.
//
// The workload alternates two threads through batched enqueue-dequeue
// pairs gated by an RWMutex; a third party repeatedly takes the write
// lock, which parks workers at batch boundaries and creates exactly the
// suspension pattern of the bug. A stuck round is detected by the write
// lock becoming unobtainable.
func TestLine73RaceRegression(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		q := New[int64](2, WithVariant(VariantOpt12))
		for i := 0; i < 100; i++ {
			q.Enqueue(0, int64(i))
		}
		var gate sync.RWMutex
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				i := int64(0)
				for !stop.Load() {
					gate.RLock()
					for k := 0; k < 64; k++ {
						q.Enqueue(tid, i)
						q.Dequeue(tid)
						i++
					}
					gate.RUnlock()
				}
			}(w)
		}
		lockDone := make(chan struct{})
		go func() {
			for s := 0; s < 3; s++ {
				time.Sleep(time.Millisecond)
				gate.Lock()
				//lint:ignore SA2001 the empty critical section is the point: park workers
				gate.Unlock()
			}
			close(lockDone)
		}()
		select {
		case <-lockDone:
		case <-time.After(10 * time.Second):
			dumpStuckState(t, q)
			t.Fatalf("round %d: livelock (Line 73 race?)", round)
		}
		stop.Store(true)
		wg.Wait()
	}
}

func dumpStuckState(t *testing.T, q *Queue[int64]) {
	t.Helper()
	tail := q.tailRef.Load()
	head := q.headRef.Load()
	next := tail.next.Load()
	msg := fmt.Sprintf("head=%p tail=%p tail.next=%p", head, tail, next)
	if next != nil {
		msg += fmt.Sprintf("\n dangling: enqTid=%d deqTid=%d self-loop=%v",
			next.enqTid, next.deqTid.Load(), next.next.Load() == next)
		for i := range q.state {
			rec := &q.state[i]
			c := rec.ctl.Load()
			msg += fmt.Sprintf("\n state[%d]: phase=%d ver=%d st=%d node==dangling:%v",
				i, rec.phase.Load(), c>>3, c&stMask, rec.node.Load() == next)
		}
	}
	t.Log(msg)
}
