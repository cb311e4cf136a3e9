package qsvc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfq"
	"wfq/internal/tid"
)

// checkConservation asserts the counter identities that must hold at
// quiescence once the per-session cells are summed: every admitted
// request is delivered, expired, aborted after admission (aborted
// counts only those here — no enqueue in these tests fails after
// admission), or still live; and the delay histogram saw exactly one
// observation per delivery.
func checkConservation(t *testing.T, q *Queue[int64], when string) Stats {
	t.Helper()
	st := q.Stats()
	if depth := q.Depth(); depth != st.Depth {
		t.Fatalf("%s: Depth() %d, Stats().Depth %d", when, depth, st.Depth)
	}
	if st.Admitted != st.Delivered+st.Expired+st.Aborted+st.Depth {
		t.Fatalf("%s: admitted %d != delivered %d + expired %d + aborted %d + depth %d",
			when, st.Admitted, st.Delivered, st.Expired, st.Aborted, st.Depth)
	}
	if d := q.Delays(); d.Count != st.Delivered || st.Delay.Count != st.Delivered {
		t.Fatalf("%s: delay count %d (stats %d), delivered %d", when, d.Count, st.Delay.Count, st.Delivered)
	}
	return st
}

// TestSessionCellConservation drives the per-session counter cells the
// way a server does: workers lease sessions (more workers than tids, so
// tids are released and re-leased by other goroutines), mix plain and
// deadline-armed enqueues with dequeues while a ticker sweeps short
// deadlines, and a Delete finally aborts what is still armed. The
// summed counters must agree with the workers' own tallies and conserve
// every admitted request, with the uncapped per-cell depth and with the
// capped queue's shared depth word alike.
func TestSessionCellConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uncapped", Config{Backend: BackendRing, MaxThreads: 3}},
		{"capped", Config{Backend: BackendRing, MaxThreads: 3, MaxDepth: 48}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry[int64]()
			q, err := r.Create("cells", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var sweeper sync.WaitGroup
			sweeper.Add(1)
			go func() {
				defer sweeper.Done()
				for {
					select {
					case <-stop:
						return
					default:
						r.Tick(time.Now())
						time.Sleep(100 * time.Microsecond)
					}
				}
			}()

			const workers, leases, opsPerLease = 5, 40, 50
			var enqueued, dequeued, rejected atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for l := 0; l < leases; l++ {
						s, err := q.Session()
						for errors.Is(err, tid.ErrExhausted) {
							time.Sleep(10 * time.Microsecond)
							s, err = q.Session()
						}
						if err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < opsPerLease; i++ {
							var dl time.Duration
							if i%4 == 0 {
								// Short enough that some expire before a
								// dequeue reaches them.
								dl = time.Duration(1+(w*7+i)%50) * time.Microsecond
							}
							_, err := s.Enqueue(int64(i), dl)
							switch {
							case err == nil:
								enqueued.Add(1)
							case errors.Is(err, wfq.ErrAdmission):
								rejected.Add(1)
							default:
								t.Error(err)
							}
							if i%3 != 0 {
								if _, ok := s.TryDequeue(); ok {
									dequeued.Add(1)
								}
							}
						}
						s.Release()
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			sweeper.Wait()

			// However the traffic interleaved, expire a few requests for
			// certain: make room under the cap, then let a sweep pass
			// their deadlines with no dequeue running.
			s, err := q.Session()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, ok := s.TryDequeue(); ok {
					dequeued.Add(1)
				}
			}
			for i := 0; i < 4; i++ {
				if _, err := s.Enqueue(int64(i), time.Microsecond); err != nil {
					t.Fatal(err)
				}
				enqueued.Add(1)
			}
			time.Sleep(time.Millisecond)
			if n := q.Sweep(time.Now()); n < 4 {
				t.Fatalf("sweep expired %d of 4 overdue requests", n)
			}

			st := checkConservation(t, q, "after traffic")
			if st.Admitted != enqueued.Load() || st.Delivered != dequeued.Load() {
				t.Fatalf("stats admitted %d / delivered %d, workers saw %d / %d",
					st.Admitted, st.Delivered, enqueued.Load(), dequeued.Load())
			}
			if st.Rejected != rejected.Load() {
				t.Fatalf("stats rejected %d, workers saw %d", st.Rejected, rejected.Load())
			}
			if st.Depth == 0 {
				t.Fatalf("traffic left nothing live: %+v", st)
			}

			// Park armed requests past any sweep, then Delete: its abort
			// is the only way they leave.
			armed := 0
			for i := 0; i < 8; i++ {
				if _, err := s.Enqueue(int64(i), time.Hour); err == nil {
					armed++
				}
			}
			if err := r.Delete("cells"); err != nil {
				t.Fatal(err)
			}
			st = checkConservation(t, q, "after delete")
			if st.Aborted < int64(armed) {
				t.Fatalf("delete aborted %d, want >= %d armed: %+v", st.Aborted, armed, st)
			}

			// The closed queue still hands out its live plain requests;
			// draining them brings the live count to zero.
			for {
				if _, ok := s.TryDequeue(); !ok {
					break
				}
			}
			s.Release()
			if st = checkConservation(t, q, "after drain"); st.Depth != 0 || st.Inflight != 0 {
				t.Fatalf("drained queue: depth %d, inflight %d", st.Depth, st.Inflight)
			}
		})
	}
}

// BenchmarkSessionPairsParallel is the contended service path: every
// benchmark goroutine holds its own session and loops Enqueue then
// TryDequeue on one shared ring queue, with the timeout sweep ticking
// every millisecond as a server runs it. "plain" carries no deadlines;
// "armed10" arms one enqueue in ten.
func BenchmarkSessionPairsParallel(b *testing.B) {
	for _, bc := range []struct {
		name     string
		armedPer int // one in armedPer enqueues is armed; 0 = none
	}{
		{"plain", 0},
		{"armed10", 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRegistry[int64]()
			q, _ := r.Create("bench", Config{Backend: BackendRing})
			stop := make(chan struct{})
			var ticker sync.WaitGroup
			ticker.Add(1)
			go func() {
				defer ticker.Done()
				t := time.NewTicker(time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case now := <-t.C:
						r.Tick(now)
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s, err := q.Session()
				if err != nil {
					b.Error(err)
					return
				}
				defer s.Release()
				i := 0
				for pb.Next() {
					var dl time.Duration
					if bc.armedPer > 0 && i%bc.armedPer == 0 {
						dl = time.Second
					}
					i++
					if _, err := s.Enqueue(int64(i), dl); err != nil {
						b.Error(err)
						return
					}
					s.TryDequeue()
				}
			})
			b.StopTimer()
			close(stop)
			ticker.Wait()
		})
	}
}
