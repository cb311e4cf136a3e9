package qsvc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfq"
)

// TestRegistryLifecycle pins create/lookup/delete semantics and the
// generation-keyed identity: a deleted-then-recreated name yields a
// DIFFERENT queue with a strictly larger generation, and handles to the
// old generation observe wfq.ErrClosed rather than the new queue.
func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry[int64]()

	q1, err := r.Create("orders", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("orders", Config{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	if got, ok := r.Get("orders"); !ok || got != q1 {
		t.Fatal("lookup did not resolve the created queue")
	}
	if err := r.Delete("orders"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("orders"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
	if _, ok := r.Get("orders"); ok {
		t.Fatal("deleted name still resolves")
	}

	q2, err := r.Create("orders", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if q2 == q1 || q2.Gen() <= q1.Gen() {
		t.Fatalf("recreated queue must have a fresh identity: gen %d vs %d", q2.Gen(), q1.Gen())
	}

	// The OLD generation's handle is dead: enqueues fail with ErrClosed
	// and publish nothing into the new queue.
	s1, err := q1.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Release()
	if _, err := s1.Enqueue(42, 0); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("enqueue on deleted generation: got %v, want ErrClosed", err)
	}
	s2, err := q2.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	if _, ok := s2.TryDequeue(); ok {
		t.Fatal("element leaked from deleted generation into recreated queue")
	}
}

// TestEnqueueDequeueRoundtrip covers the plain (no-deadline) path on
// every backend: FIFO delivery, depth accounting, and the delay
// histogram counting every delivery.
func TestEnqueueDequeueRoundtrip(t *testing.T) {
	for _, backend := range []Backend{BackendRing} {
		t.Run(backend.String(), func(t *testing.T) {
			r := NewRegistry[int64]()
			q, err := r.Create("q", Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			s, err := q.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()

			const n = 100
			for i := int64(0); i < n; i++ {
				if _, err := s.Enqueue(i, 0); err != nil {
					t.Fatal(err)
				}
			}
			if d := q.Depth(); d != n {
				t.Fatalf("depth after enqueues: %d, want %d", d, n)
			}
			for i := int64(0); i < n; i++ {
				v, ok := s.TryDequeue()
				if !ok || v != i {
					t.Fatalf("dequeue %d: got (%d, %v)", i, v, ok)
				}
			}
			if d := q.Depth(); d != 0 {
				t.Fatalf("depth after drain: %d, want 0", d)
			}
			st := q.Stats()
			if st.Admitted != n || st.Delivered != n || st.Expired != 0 || st.Delay.Count != n {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestDeadlineSweepExpires: an armed request with no consumer must be
// completed by the sweep with a deadline error that satisfies both
// typed sentinels; its element must surface as a discarded tombstone,
// never as a delivery.
func TestDeadlineSweepExpires(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{Backend: BackendRing})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	req, err := s.Enqueue(7, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-req.Done():
		t.Fatal("request completed before any sweep")
	default:
	}

	// A sweep BEFORE the deadline must expire nothing.
	if n := r.Tick(time.Now()); n != 0 {
		t.Fatalf("premature tick expired %d", n)
	}
	time.Sleep(5 * time.Millisecond)
	if n := r.Tick(time.Now()); n != 1 {
		t.Fatalf("tick expired %d, want 1", n)
	}

	<-req.Done()
	if err := req.Err(); !errors.Is(err, wfq.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request error %v must match both deadline sentinels", err)
	}

	// The swept element must NOT be delivered: the tombstone is
	// discarded and the dequeue reports empty.
	if v, ok := s.TryDequeue(); ok {
		t.Fatalf("swept request was also delivered: %d", v)
	}
	st := q.Stats()
	if st.Expired != 1 || st.Delivered != 0 || st.Depth != 0 || st.Tombstones != 1 {
		t.Fatalf("stats after sweep: %+v", st)
	}
}

// TestDeadlineEnforcedAtDelivery: with the sweeper frozen (nobody ticks),
// an armed request dequeued after its deadline must not be delivered.
// The dequeue expires it with the sweep's accounting and discards it as a
// tombstone, and a later sweep does not count it twice.
func TestDeadlineEnforcedAtDelivery(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{Backend: BackendRing})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	req, err := s.Enqueue(7, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if v, ok := s.TryDequeue(); ok {
		t.Fatalf("request delivered %v past its deadline", v)
	}
	select {
	case <-req.Done():
	default:
		t.Fatal("expired request not completed by the dequeue")
	}
	if err := req.Err(); !errors.Is(err, wfq.ErrDeadlineExceeded) {
		t.Fatalf("request error %v, want wfq.ErrDeadlineExceeded", err)
	}
	if n := q.Sweep(time.Now()); n != 0 {
		t.Fatalf("later sweep expired %d, want 0", n)
	}
	st := q.Stats()
	if st.Expired != 1 || st.Delivered != 0 || st.Depth != 0 || st.Inflight != 0 || st.Tombstones != 1 {
		t.Fatalf("stats after expiry at delivery: %+v", st)
	}
	if r.Swept() != 0 {
		t.Fatalf("registry counted %d tick expiries; the dequeue expired it", r.Swept())
	}

	// A request dequeued before its deadline is still delivered.
	if _, err := s.Enqueue(8, time.Hour); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.TryDequeue(); !ok || v != 8 {
		t.Fatalf("(%d,%v), want (8,true)", v, ok)
	}
}

// TestClockRoundTrip pins the package clock's conversions: an armed
// request's Deadline lies between the enqueue's bracketing time.Now
// readings plus the deadline, Sweep reads that Deadline back onto the
// same clock (one nanosecond earlier expires nothing, the Deadline
// itself expires it), and a plain pair's recorded delay is non-negative
// and no longer than the test's own elapsed time.
func TestClockRoundTrip(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{Backend: BackendRing})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	const dl = time.Hour
	before := time.Now()
	req, err := s.Enqueue(1, dl)
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	d := req.Deadline()
	if d.Before(before.Add(dl)) || d.After(after.Add(dl)) {
		t.Fatalf("deadline %v outside [%v, %v]", d, before.Add(dl), after.Add(dl))
	}
	if n := q.Sweep(d.Add(-time.Nanosecond)); n != 0 {
		t.Fatalf("sweep 1ns before the deadline expired %d", n)
	}
	if n := q.Sweep(d); n != 1 {
		t.Fatalf("sweep at the deadline expired %d, want 1", n)
	}
	if _, ok := s.TryDequeue(); ok {
		t.Fatal("swept request was delivered")
	}

	start := time.Now()
	if _, err := s.Enqueue(2, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.TryDequeue(); !ok || v != 2 {
		t.Fatalf("plain pair: got (%d,%v)", v, ok)
	}
	elapsed := time.Since(start)
	ds := q.Delays()
	if ds.Count != 1 || ds.Max < 0 || ds.Max > elapsed {
		t.Fatalf("delay snapshot %+v, want one delay in [0, %v]", ds, elapsed)
	}
}

// TestSweptNeverDelivered is the conservation stress: armed requests
// race a concurrent consumer against a fast sweep ticker, and every
// request must land in EXACTLY one of {delivered, expired} — the
// completion CAS arbitrates.
func TestSweptNeverDelivered(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{Backend: BackendRing})

	const n = 400
	reqs := make([]*Req, n)

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Tick(time.Now())
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var consumed atomic.Int64
	var consumers sync.WaitGroup
	cctx, ccancel := context.WithCancel(context.Background())
	for c := 0; c < 2; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			s, err := q.Session()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Release()
			for {
				if _, err := s.DequeueCtx(cctx); err != nil {
					return
				}
				consumed.Add(1)
				// Let some requests expire by stalling occasionally.
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}

	prod, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		req, err := prod.Enqueue(int64(i), time.Duration(500+i%7*300)*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	prod.Release()

	deadline := time.After(30 * time.Second)
	for i, req := range reqs {
		select {
		case <-req.Done():
		case <-deadline:
			t.Fatalf("request %d never completed", i)
		}
	}
	ccancel()
	consumers.Wait()
	close(stop)
	sweeps.Wait()

	st := q.Stats()
	if st.Delivered+st.Expired != n {
		t.Fatalf("conservation: delivered %d + expired %d != %d", st.Delivered, st.Expired, n)
	}
	// Every delivered request was handed to a consumer exactly once.
	if consumed.Load() != st.Delivered {
		t.Fatalf("consumer saw %d, stats delivered %d", consumed.Load(), st.Delivered)
	}
	// Per-request cross-check: Err nil iff delivered.
	delivered := int64(0)
	for _, req := range reqs {
		if req.Err() == nil {
			delivered++
		} else if !errors.Is(req.Err(), wfq.ErrDeadlineExceeded) {
			t.Fatalf("unexpected terminal error: %v", req.Err())
		}
	}
	if delivered != st.Delivered {
		t.Fatalf("per-request delivered %d, stats %d", delivered, st.Delivered)
	}
}

// TestAdmissionDepthCap: the cap rejects with the typed backpressure
// error, nothing is published, the observed depth never exceeds the
// cap, and capacity freed by dequeues readmits.
func TestAdmissionDepthCap(t *testing.T) {
	r := NewRegistry[int64]()
	const cap = 8
	q, _ := r.Create("q", Config{Backend: BackendRing, MaxDepth: cap})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	for i := int64(0); i < cap; i++ {
		if _, err := s.Enqueue(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Enqueue(99, 0); !errors.Is(err, wfq.ErrAdmission) {
		t.Fatalf("over-cap enqueue: got %v, want ErrAdmission", err)
	}
	if d := q.Depth(); d != cap {
		t.Fatalf("depth %d exceeds cap %d", d, cap)
	}
	if st := q.Stats(); st.Rejected != 1 || st.Len != cap {
		t.Fatalf("stats: %+v", st)
	}
	if _, ok := s.TryDequeue(); !ok {
		t.Fatal("dequeue under cap failed")
	}
	if _, err := s.Enqueue(100, 0); err != nil {
		t.Fatalf("enqueue after freeing capacity: %v", err)
	}
}

// TestAdmissionDepthCapConcurrent hammers a capped queue from many
// producers and asserts the depth invariant holds at every sampled
// instant and in the final accounting.
func TestAdmissionDepthCapConcurrent(t *testing.T) {
	r := NewRegistry[int64]()
	const cap = 16
	q, _ := r.Create("q", Config{Backend: BackendRing, MaxDepth: cap})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := q.Session()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = s.Enqueue(1, 0)
				if d := q.Depth(); d > cap {
					t.Errorf("depth %d exceeded cap %d", d, cap)
					return
				}
			}
		}()
	}
	// One consumer keeps capacity churning.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := q.Session()
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Release()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.TryDequeue()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := q.Stats()
	if st.Admitted-st.Delivered != st.Depth || st.Depth > cap {
		t.Fatalf("final accounting: %+v", st)
	}
}

// TestAdmissionInflightCap: the armed-request cap is independent of
// depth — plain enqueues keep flowing while armed ones are rejected.
func TestAdmissionInflightCap(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{MaxInflight: 2})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	if _, err := s.Enqueue(1, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(3, time.Hour); !errors.Is(err, wfq.ErrAdmission) {
		t.Fatalf("over-inflight armed enqueue: got %v, want ErrAdmission", err)
	}
	// Plain requests are not subject to the inflight cap.
	if _, err := s.Enqueue(4, 0); err != nil {
		t.Fatalf("plain enqueue blocked by inflight cap: %v", err)
	}
	// Delivering an armed request frees inflight capacity.
	if _, ok := s.TryDequeue(); !ok {
		t.Fatal("dequeue failed")
	}
	if _, err := s.Enqueue(5, time.Hour); err != nil {
		t.Fatalf("armed enqueue after delivery: %v", err)
	}
}

// TestDeleteAbortsPendingArmed: Delete must complete pending armed
// requests with wfq.ErrClosed — producers never hang on a queue whose
// sweep has stopped.
func TestDeleteAbortsPendingArmed(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	req, err := s.Enqueue(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-req.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("pending armed request not aborted by Delete")
	}
	if err := req.Err(); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("aborted request error: %v, want ErrClosed", err)
	}
	if st := q.Stats(); st.Aborted != 1 || st.Inflight != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

// TestCloseDrainsThenErrClosed: Close (without Delete) keeps admitted
// elements dequeuable, rejects new enqueues, and blocked consumers get
// ErrClosed only after the drain.
func TestCloseDrainsThenErrClosed(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{Backend: BackendRing})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	if _, err := s.Enqueue(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(2, 0); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("enqueue after close: got %v, want ErrClosed", err)
	}
	v, err := s.DequeueCtx(context.Background())
	if err != nil || v != 1 {
		t.Fatalf("drain after close: got (%d, %v)", v, err)
	}
	if _, err := s.DequeueCtx(context.Background()); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("dequeue after drain: got %v, want ErrClosed", err)
	}
	// Close on a closed queue and on a missing name report properly.
	if err := r.Close("q"); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if err := r.Close("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("close missing: %v", err)
	}
}

// TestDelaySnapshot sanity-checks the histogram: known sleeps must land
// in the right order of magnitude and count correctly.
func TestDelaySnapshot(t *testing.T) {
	var h Hist
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	for i := 0; i < 99; i++ {
		h.Observe(int64(time.Millisecond))
	}
	h.Observe(int64(time.Second))
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P50 < time.Duration(int64(time.Millisecond)) || s.P50 > 2*time.Millisecond {
		t.Fatalf("p50 %v outside [1ms, 2ms]", s.P50)
	}
	if s.P99 < time.Second || s.P99 > 2*time.Second {
		t.Fatalf("p99 %v outside [1s, 2s]", s.P99)
	}
	if s.Max != time.Second {
		t.Fatalf("max %v", s.Max)
	}
	if s.Mean < 5*time.Millisecond || s.Mean > 20*time.Millisecond {
		t.Fatalf("mean %v", s.Mean)
	}
}

// TestParseBackend pins the flag/wire spellings.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in     string
		b      Backend
		shards int
	}{
		{"", BackendRing, 0},
		{"ring", BackendRing, 0},
		{"sharded-ring", BackendRing, 4},
	} {
		b, sh, err := ParseBackend(tc.in)
		if err != nil || b != tc.b || sh != tc.shards {
			t.Fatalf("ParseBackend(%q) = (%v, %d, %v)", tc.in, b, sh, err)
		}
	}
	for _, bad := range []string{"bogus", "fast", "core", "sharded"} {
		if _, _, err := ParseBackend(bad); err == nil {
			t.Fatalf("ParseBackend accepted %q", bad)
		}
	}
}

// TestShardedBackendComposes exercises the sharded facade path through
// the service layer (dispatch/drain semantics are the facade's; here we
// only assert conservation through the envelope).
func TestShardedBackendComposes(t *testing.T) {
	r := NewRegistry[int64]()
	q, _ := r.Create("q", Config{Backend: BackendRing, Shards: 2})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	const n = 64
	for i := int64(0); i < n; i++ {
		if _, err := s.Enqueue(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	got := 0
	for {
		if _, err := s.DequeueCtx(context.Background()); err != nil {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("sharded drain delivered %d of %d", got, n)
	}
}
