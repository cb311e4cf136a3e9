package lincheck

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"wfq/internal/model"
	"wfq/internal/msqueue"
	"wfq/internal/xrand"
)

// mk builds an Op succinctly for hand-written histories.
func enq(tid int, arg int64, inv, res int64) Op {
	return Op{TID: tid, Kind: Enq, Arg: arg, OK: true, Inv: inv, Res: res}
}
func deqv(tid int, ret int64, inv, res int64) Op {
	return Op{TID: tid, Kind: Deq, Ret: ret, OK: true, Inv: inv, Res: res}
}
func deqe(tid int, inv, res int64) Op {
	return Op{TID: tid, Kind: Deq, OK: false, Inv: inv, Res: res}
}

func ids(hist []Op) []Op {
	for i := range hist {
		hist[i].ID = i
	}
	return hist
}

func mustCheck(t *testing.T, hist []Op, want Result) {
	t.Helper()
	var c Checker
	got, err := c.Check(hist)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %v, want %v for history %v", got, want, hist)
	}
}

func TestEmptyHistory(t *testing.T) {
	mustCheck(t, nil, Linearizable)
}

func TestSequentialLegal(t *testing.T) {
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		enq(0, 2, 3, 4),
		deqv(0, 1, 5, 6),
		deqv(0, 2, 7, 8),
		deqe(0, 9, 10),
	}), Linearizable)
}

func TestSequentialWrongOrder(t *testing.T) {
	// FIFO violated: 2 dequeued before 1.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		enq(0, 2, 3, 4),
		deqv(0, 2, 5, 6),
	}), NotLinearizable)
}

func TestSequentialLostValue(t *testing.T) {
	// deq returns a value never enqueued.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		deqv(0, 9, 3, 4),
	}), NotLinearizable)
}

func TestSequentialPrematureEmpty(t *testing.T) {
	// Empty reported while an element was definitely in the queue.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		deqe(0, 3, 4),
	}), NotLinearizable)
}

func TestConcurrentOverlapLegal(t *testing.T) {
	// Two overlapping enqueues followed by dequeues that pick one of
	// the two legal orders.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 5),
		enq(1, 2, 2, 4), // overlaps with the first
		deqv(0, 2, 6, 7),
		deqv(1, 1, 8, 9),
	}), Linearizable)
}

func TestConcurrentEmptyLegal(t *testing.T) {
	// deq()=empty overlapping an enqueue may linearize before it.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 10),
		deqe(1, 2, 3), // entirely inside the enqueue window
		deqv(1, 1, 11, 12),
	}), Linearizable)
}

func TestRealTimeOrderRespected(t *testing.T) {
	// enq(1) completed strictly before enq(2) started; dequeuing 2
	// before 1 is NOT linearizable.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		enq(1, 2, 3, 4),
		deqv(0, 2, 5, 6),
		deqv(1, 1, 7, 8),
	}), NotLinearizable)
}

func TestDuplicateDelivery(t *testing.T) {
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		deqv(0, 1, 3, 4),
		deqv(1, 1, 5, 6), // same value delivered twice
	}), NotLinearizable)
}

func TestCheckFromInitialState(t *testing.T) {
	var c Checker
	hist := ids([]Op{deqv(0, 7, 1, 2)})
	got, err := c.CheckFrom(hist, []int64{7, 8})
	if err != nil || got != Linearizable {
		t.Fatalf("(%v,%v)", got, err)
	}
	got, err = c.CheckFrom(hist, []int64{8, 7})
	if err != nil || got != NotLinearizable {
		t.Fatalf("wrong head accepted: (%v,%v)", got, err)
	}
}

func TestMalformedHistory(t *testing.T) {
	var c Checker
	_, err := c.Check([]Op{{Kind: Enq, Arg: 1, Inv: 5, Res: 2}})
	if err == nil {
		t.Fatal("malformed history accepted")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A large all-overlapping history forces a huge search; a tiny
	// budget must yield Unknown, not a wrong verdict.
	var hist []Op
	n := 12
	for i := 0; i < n; i++ {
		hist = append(hist, enq(i, int64(i), 1, 100))
	}
	for i := 0; i < n; i++ {
		hist = append(hist, deqv(i, int64(n-1-i), 101, 200)) // reverse order: illegal...
	}
	c := Checker{Budget: 50}
	got, err := c.Check(ids(hist))
	if err != nil {
		t.Fatal(err)
	}
	if got != Unknown {
		t.Fatalf("tiny budget returned %v", got)
	}
}

func TestWitnessOrder(t *testing.T) {
	var witness []int
	c := Checker{Witness: &witness}
	hist := ids([]Op{
		enq(0, 1, 1, 2),
		deqv(1, 1, 3, 4),
	})
	got, err := c.Check(hist)
	if err != nil || got != Linearizable {
		t.Fatalf("(%v,%v)", got, err)
	}
	if len(witness) != 2 || witness[0] != 0 || witness[1] != 1 {
		t.Fatalf("witness %v", witness)
	}
}

// TestWitnessReplaysLegally: the witness order returned by the checker
// must itself be a legal sequential execution that respects real-time
// order — the certificate is checked, not just produced.
func TestWitnessReplaysLegally(t *testing.T) {
	hist := ids([]Op{
		enq(0, 1, 1, 5),
		enq(1, 2, 2, 4),
		deqv(0, 2, 6, 7),
		deqv(1, 1, 8, 9),
		deqe(0, 10, 11),
	})
	var witness []int
	c := Checker{Witness: &witness}
	res, err := c.Check(hist)
	if err != nil || res != Linearizable {
		t.Fatalf("(%v,%v)", res, err)
	}
	if len(witness) != len(hist) {
		t.Fatalf("witness %v misses ops", witness)
	}
	byID := make(map[int]Op, len(hist))
	for _, op := range hist {
		byID[op.ID] = op
	}
	// Replay against the model.
	var spec model.Queue
	for _, id := range witness {
		op, ok := byID[id]
		if !ok {
			t.Fatalf("witness names unknown op %d", id)
		}
		delete(byID, id)
		switch {
		case op.Kind == Enq:
			spec.Enqueue(op.Arg)
		case op.OK:
			v, ok := spec.Dequeue()
			if !ok || v != op.Ret {
				t.Fatalf("witness illegal at %v: got (%d,%v)", op, v, ok)
			}
		default:
			if !spec.Empty() {
				t.Fatalf("witness illegal at %v: queue not empty", op)
			}
		}
	}
	// Real-time order: op A wholly before op B must precede it.
	pos := make(map[int]int, len(witness))
	for i, id := range witness {
		pos[id] = i
	}
	for _, a := range hist {
		for _, b := range hist {
			if a.Res < b.Inv && pos[a.ID] > pos[b.ID] {
				t.Fatalf("witness violates real-time order: %v after %v", a, b)
			}
		}
	}
}

func TestResultString(t *testing.T) {
	if Linearizable.String() == "" || NotLinearizable.String() == "" || Unknown.String() == "" {
		t.Fatal("empty result strings")
	}
	if Linearizable.String() == NotLinearizable.String() {
		t.Fatal("indistinct result strings")
	}
}

// TestRecorderRoundTrip drives the recorder exactly as harness workers do.
func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(2, 4)
	tok := r.BeginEnq(0, 5)
	r.EndEnq(tok)
	tok = r.BeginDeq(1)
	r.EndDeq(tok, 5, true)
	tok = r.BeginDeq(0)
	r.EndDeq(tok, 0, false)
	hist := r.History()
	if len(hist) != 3 {
		t.Fatalf("history %v", hist)
	}
	for i, op := range hist {
		if op.ID != i || op.Inv >= op.Res {
			t.Fatalf("bad op %v", op)
		}
	}
	mustCheck(t, hist, Linearizable)
}

func TestRecorderDropsUnfinished(t *testing.T) {
	r := NewRecorder(1, 2)
	r.BeginEnq(0, 1) // never ended
	tok := r.BeginEnq(0, 2)
	r.EndEnq(tok)
	hist := r.History()
	if len(hist) != 1 || hist[0].Arg != 2 {
		t.Fatalf("history %v", hist)
	}
}

func TestOpString(t *testing.T) {
	ops := []Op{enq(0, 1, 1, 2), deqv(1, 2, 3, 4), deqe(2, 5, 6)}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("bad op string %q", s)
		}
		seen[s] = true
	}
}

// TestLiveMSQueueHistoryLinearizable records a genuinely concurrent run
// of the Michael–Scott queue and checks it — the recorder+checker stack
// working end to end on a real data structure.
func TestLiveMSQueueHistoryLinearizable(t *testing.T) {
	const workers = 4
	const opsEach = 60
	q := msqueue.New[int64]()
	rec := NewRecorder(workers, opsEach)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(uint64(tid) + 99)
			for i := 0; i < opsEach; i++ {
				if rng.Bool() {
					v := int64(tid*1000 + i)
					tok := rec.BeginEnq(tid, v)
					q.Enqueue(v)
					rec.EndEnq(tok)
				} else {
					tok := rec.BeginDeq(tid)
					v, ok := q.Dequeue()
					rec.EndDeq(tok, v, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	var c Checker
	res, err := c.Check(rec.History())
	if err != nil {
		t.Fatal(err)
	}
	if res != Linearizable {
		t.Fatalf("live MS-queue history: %v", res)
	}
}

// TestDetectsBuggyQueue: a deliberately broken "queue" (LIFO) must be
// caught by the checker on histories that expose the inversion.
func TestDetectsBuggyQueue(t *testing.T) {
	// Sequential LIFO history: enq 1, enq 2, deq->2. Not FIFO.
	mustCheck(t, ids([]Op{
		enq(0, 1, 1, 2),
		enq(0, 2, 3, 4),
		deqv(0, 2, 5, 6),
		deqv(0, 1, 7, 8),
	}), NotLinearizable)
}

// TestMemoBoundedOnWideHistory: on a history with wide concurrency —
// every enqueue overlapping every other, then every dequeue, with one
// dequeue returning a value nobody enqueued so no witness exists —
// nearly every search step reaches a new state. The memo must stop
// growing at its cap (and the heap with it) while the search still
// runs to its step budget and answers Unknown.
func TestMemoBoundedOnWideHistory(t *testing.T) {
	const n = 10
	var hist []Op
	for i := 0; i < n; i++ {
		hist = append(hist, enq(i, int64(i), int64(1+i), int64(100+i)))
	}
	for i := 0; i < n; i++ {
		hist = append(hist, deqv(i, int64(i), int64(200+i), int64(300+i)))
	}
	hist = append(hist, deqv(n, 12345, 150, 400))
	hist = ids(hist)

	const budget = 1_000_000
	run := func(memoCap int) (s *search, heap int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s = newSearch(hist, nil, budget, memoCap)
		ok, exhausted := s.dfs(&model.Queue{}, 0)
		if ok || !exhausted {
			t.Fatalf("memo cap %d: ok=%v exhausted=%v, want the budget to run out", memoCap, ok, exhausted)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return s, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}

	const capBytes = 1 << 20
	capped, heap := run(capBytes)
	if capped.memo > capBytes {
		t.Fatalf("memo accounted %d bytes, cap %d", capped.memo, capBytes)
	}
	if heap > 4*capBytes {
		t.Fatalf("search holds %d bytes of heap with a %d-byte memo cap", heap, capBytes)
	}
	// The cap must be what bounded it: uncapped, the same search keeps
	// many times more.
	if uncapped, _ := run(math.MaxInt); uncapped.memo < 8*capBytes {
		t.Fatalf("uncapped memo only reached %d bytes; the history is not wide enough to test the cap", uncapped.memo)
	}
}
