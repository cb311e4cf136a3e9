package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wfq"
	"wfq/internal/qsvc"
)

// workers is the closed-loop client count of every pairs workload.
const workers = 2

// timing strides: an untraced run times one pair in untracedEvery (a
// clock read costs a sizeable fraction of an in-process pair); a traced
// run times every call.
const (
	untracedEvery = 32
	spanEvery     = 64 // traced: keep the spans of one request in spanEvery
	spanLimit     = 20000
	sampleCap     = 1 << 17
	subSampleCap  = 1 << 13
)

// subWindows splits a measured window into parts of about a second, at
// least five. Each end-to-end metric is the median of its value in each
// part, so a burst of interference from outside the benchmark (another
// tenant of the host taking a CPU for a moment) moves only the parts it
// hits.
func subWindows(seconds float64) int { return max(5, int(math.Round(seconds))) }

// subRec is one client's record of one sub-window.
type subRec struct {
	ops                int64
	pair, enq, deliver *sampler
}

// worker is one closed-loop client's private record.
type worker struct {
	sent     sent
	tally    *tally
	attempts int64
	failed   int64
	pairs    int64
	empty    int64 // dequeues that found the queue empty, inside the window
	deqs     int64

	sub []subRec // enqueues + successful dequeues and latencies, per sub-window
	// Traced only: per-call spans at the layer the workload calls into.
	enqPlain, enqArmed, deq *sampler
	spans                   *spanLog
}

func newWorker(traced bool, subs int) *worker {
	w := &worker{tally: newTally(), sub: make([]subRec, subs)}
	for i := range w.sub {
		w.sub[i] = subRec{pair: newSampler(subSampleCap), enq: newSampler(subSampleCap), deliver: newSampler(subSampleCap)}
	}
	if traced {
		w.enqPlain = newSampler(sampleCap)
		w.enqArmed = newSampler(sampleCap)
		w.deq = newSampler(sampleCap)
		w.spans = newSpanLog(spanLimit)
	}
	return w
}

// Phases of a closed-loop run; workers read the phase once per pair.
const (
	phWarm int32 = iota
	phMeasure
	phStop
)

// window runs warm-up, then the measured window in subWindows parts,
// then stops the workers. atStart and atEnd run at the window's edges
// to read counters.
type window struct {
	n          int // sub-windows
	ph         atomic.Int32
	sub        atomic.Int32 // current sub-window while measuring
	start, end int64
	edges      []int64 // sub-window k spans edges[k]..edges[k+1]
	steal      []int64 // stealTicks() at each edge
	rssMaxKB   int64   // this process's largest resident set at an edge
}

// stealShare is the share of a sub-window's CPU time that the host may
// steal before the sub-window stops measuring this code: for that long
// the hypervisor gave this machine's CPUs to someone else.
const stealShare = 0.05

// clean reports whether sub-window k, and the one before it (whose
// backlog k may still be working off), ran with little host steal.
func (w *window) clean(k int) bool {
	if len(w.steal) <= k+1 {
		return true
	}
	limit := func(i int) int64 {
		secs := float64(w.edges[i+1]-w.edges[i]) / 1e9
		return int64(stealShare * clkTck * float64(runtime.NumCPU()) * secs)
	}
	if w.steal[k+1]-w.steal[k] > limit(k) {
		return false
	}
	return k == 0 || w.steal[k]-w.steal[k-1] <= limit(k-1)
}

func (w *window) run(warm, measure time.Duration, atStart, atEnd func()) {
	time.Sleep(warm)
	if atStart != nil {
		atStart()
	}
	w.start = now()
	w.edges = []int64{w.start}
	w.steal = []int64{stealTicks()}
	w.rssMaxKB = rssKB()
	w.ph.Store(phMeasure)
	for k := 1; k <= w.n; k++ {
		time.Sleep(time.Duration(w.start + int64(measure)*int64(k)/int64(w.n) - now()))
		if k < w.n {
			w.sub.Store(int32(k))
		}
		w.edges = append(w.edges, now())
		w.steal = append(w.steal, stealTicks())
		w.rssMaxKB = max(w.rssMaxKB, rssKB())
	}
	w.end = now()
	if atEnd != nil {
		atEnd()
	}
	w.ph.Store(phStop)
}

func (w *window) dur() time.Duration { return time.Duration(w.end - w.start) }

// setup_s is the median over batches of the mean time of one set-up in
// a batch. A wire set-up (a server launch) is one batch of its own. A
// single in-process set-up takes microseconds and its time is bimodal
// (whether it finds free heap memory), so batch means, each started on
// a freshly collected heap after one untimed warm-up batch, are what
// stays put between runs.
const (
	setupBatches       = 21 // wire
	inprocSetupBatches = 101
	// Set-ups per in-process batch: a kp-pairs set-up allocates about
	// 3 KB, an svc-pairs one (a 256-session ring queue) about 250 KB.
	kpSetupsPerBatch  = 1000
	svcSetupsPerBatch = 10
)

func timeSetups(batches, per int, setup func() error) ([]float64, error) {
	var out []float64
	for i := -1; i < batches; i++ {
		runtime.GC()
		t := now()
		for j := 0; j < per; j++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		if i >= 0 {
			out = append(out, float64(now()-t)/1e9/float64(per))
		}
	}
	return out, nil
}

// rng is xorshift64*, seeded per worker from the run's seed.
type rng uint64

func newRNG(seed int64, stream int) rng {
	r := rng(mix(uint64(seed)*2654435761 + uint64(stream)))
	if r == 0 {
		r = 1
	}
	return r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// ---- kp-pairs: the paper's Fig. 7 pairs on the facade's KP engine ----

// A kp-pairs value is an int: producer id (2 bits), a stamped flag, a
// 29-bit sequence number and the low 32 bits of the enqueue time, which
// is enough to recover delivery latencies below 4.29s.
const (
	kpPidShift = 62
	kpStamped  = 1 << 61
	kpSeqShift = 32
	kpSeqMax   = 1<<29 - 1
)

func kpPack(pid int, seq int64, stamp int64, stamped bool) int {
	v := uint64(pid)<<kpPidShift | uint64(seq)<<kpSeqShift | uint64(uint32(stamp))
	if stamped {
		v |= kpStamped
	}
	return int(v)
}

func kpUnpack(x int) (pid int, seq int64, stamp uint32, stamped bool) {
	v := uint64(x)
	return int(v >> kpPidShift), int64(v>>kpSeqShift) & kpSeqMax, uint32(v), v&kpStamped != 0
}

func kpSetup() (*wfq.Queue[int], []*wfq.Handle[int], error) {
	q := wfq.New[int](workers)
	hs := make([]*wfq.Handle[int], workers)
	for i := range hs {
		h, err := q.Handle()
		if err != nil {
			return nil, nil, err
		}
		hs[i] = h
	}
	return q, hs, nil
}

func runKP(b *bench, seconds float64) (*pass, error) {
	p := &pass{}
	var hs []*wfq.Handle[int]
	var err error
	p.setup, err = timeSetups(inprocSetupBatches, kpSetupsPerBatch, func() error {
		_, hs, err = kpSetup()
		return err
	})
	if err != nil {
		return nil, err
	}
	// Return the set-up batches' garbage, so the resident set the window
	// samples is the workload's.
	debug.FreeOSMemory()
	every := int64(untracedEvery)
	if b.traced {
		every = 1
	}
	ws := make([]*worker, workers)
	win := window{n: subWindows(seconds)}
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = newWorker(b.traced, win.n)
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			kpLoop(ws[pid], hs[pid], pid, &win, every)
		}(i)
	}
	g := b.layerWindow(p, &win, b.warm, seconds, nil, nil)
	wg.Wait()

	// Final drain: producers have stopped, and the queue is one FIFO, so
	// an empty dequeue means it is empty.
	drain := ws[0]
	for {
		x, ok := hs[0].Dequeue()
		if !ok {
			break
		}
		pid, seq, _, _ := kpUnpack(x)
		drain.tally.see(id(pid, seq))
	}
	p.collect(ws, &win)
	p.checkErr = verifyWorkers(ws, 0)
	for _, w := range ws {
		if w.sent.n > kpSeqMax {
			p.checkErr = fmt.Errorf("kp-pairs: producer sequence exceeded %d bits", 29)
		}
	}
	if b.traced {
		p.setLayer("facade.enq_ns_p50", merge(pick(ws, func(w *worker) *sampler { return w.enqPlain })...).q(0.5))
		p.setLayer("facade.deq_ns_p50", merge(pick(ws, func(w *worker) *sampler { return w.deq })...).q(0.5))
		p.setLayer("facade.allocs_per_pair", float64(g.allocs)/float64(max(p.pairs, 1)))
	}
	return p, nil
}

func kpLoop(w *worker, h *wfq.Handle[int], pid int, win *window, every int64) {
	var seq int64
	for {
		phase := win.ph.Load()
		if phase == phStop {
			return
		}
		meas := phase == phMeasure
		sub := &w.sub[win.sub.Load()]
		timed := meas && seq%every == 0
		var t0, t1, t2 int64
		v := kpPack(pid, seq, 0, false)
		if timed {
			t0 = now()
			v = kpPack(pid, seq, t0, true)
		}
		h.Enqueue(v)
		w.attempts++
		w.sent.add(pid, seq)
		seq++
		if timed {
			t1 = now()
		}
		x, ok := h.Dequeue()
		if timed {
			t2 = now()
			sub.pair.add(t2 - t0)
			sub.enq.add(t1 - t0)
			if w.deq != nil {
				w.enqPlain.add(t1 - t0)
				w.deq.add(t2 - t1)
				if seq%spanEvery == 0 && !w.spans.full() {
					r := w.spans.root("pair", int64(id(pid, seq-1)), t0, t2)
					w.spans.child(r, "facade.enq", t0, t1)
					w.spans.child(r, "facade.deq", t1, t2)
				}
			}
		}
		if ok {
			xpid, xseq, stamp, stamped := kpUnpack(x)
			w.tally.see(id(xpid, xseq))
			if stamped && meas {
				if !timed {
					t2 = now()
				}
				sub.deliver.add(int64(uint32(t2) - stamp))
			}
		}
		if meas {
			w.pairs++
			w.deqs++
			sub.ops++
			if ok {
				sub.ops++
			} else {
				w.empty++
			}
		}
	}
}

// ---- svc-pairs: qsvc sessions on one ring named queue, in process ----

const (
	svcQueue       = "bench"
	svcArmedPerTen = 1 // one enqueue in ten carries a deadline
	armedDeadline  = time.Second
)

func svcSetup() (*qsvc.Registry[[]byte], *qsvc.Queue[[]byte], []*qsvc.Session[[]byte], error) {
	reg := qsvc.NewRegistry[[]byte]()
	q, err := reg.Create(svcQueue, qsvc.Config{Backend: qsvc.BackendRing})
	if err != nil {
		return nil, nil, nil, err
	}
	ss := make([]*qsvc.Session[[]byte], workers)
	for i := range ss {
		if ss[i], err = q.Session(); err != nil {
			return nil, nil, nil, err
		}
	}
	return reg, q, ss, nil
}

func runSvc(b *bench, seconds float64) (*pass, error) {
	p := &pass{}
	var (
		reg *qsvc.Registry[[]byte]
		q   *qsvc.Queue[[]byte]
		ss  []*qsvc.Session[[]byte]
	)
	var err error
	p.setup, err = timeSetups(inprocSetupBatches, svcSetupsPerBatch, func() error {
		reg, q, ss, err = svcSetup()
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range ss {
			s.Release()
		}
	}()
	// Return the set-up batches' garbage, so the resident set the window
	// samples is the workload's.
	debug.FreeOSMemory()
	every := int64(untracedEvery)
	if b.traced {
		every = 1
	}
	ws := make([]*worker, workers)
	win := window{n: subWindows(seconds)}
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = newWorker(b.traced, win.n)
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			svcLoop(ws[pid], ss[pid], pid, &win, every, newRNG(b.seed, pid))
		}(i)
	}
	// The sweep ticker, as the server runs it.
	tick := newSampler(sampleCap)
	var depthMax int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for range t.C {
			if win.ph.Load() == phStop {
				return
			}
			if b.traced {
				t0 := now()
				reg.Tick(time.Now())
				tick.add(now() - t0)
				depthMax = max(depthMax, q.Depth())
			} else {
				reg.Tick(time.Now())
			}
		}
	}()
	b.layerWindow(p, &win, b.warm, seconds, nil, nil)
	wg.Wait()

	drain := ws[0]
	for {
		v, ok := ss[0].TryDequeue()
		if !ok {
			break
		}
		drain.tally.seePayload(v, svcLen)
	}
	st := q.Stats()
	p.collect(ws, &win)
	p.failed += st.Expired + st.Rejected
	p.checkErr = verifyWorkers(ws, st.Expired)
	if b.traced {
		p.setLayer("qsvc.enq_ns_p50", merge(pick(ws, func(w *worker) *sampler { return w.enqPlain })...).q(0.5))
		p.setLayer("qsvc.enq_armed_ns_p50", merge(pick(ws, func(w *worker) *sampler { return w.enqArmed })...).q(0.5))
		p.setLayer("qsvc.deq_ns_p50", merge(pick(ws, func(w *worker) *sampler { return w.deq })...).q(0.5))
		p.setLayer("qsvc.tick_us_p99", merge(tick).q(0.99)/1e3)
		p.setQsvcCounts(st, depthMax)
	}
	return p, nil
}

func svcLoop(w *worker, s *qsvc.Session[[]byte], pid int, win *window, every int64, r rng) {
	var seq int64
	var pool [][]byte // payloads come back through dequeues and are reused
	for {
		phase := win.ph.Load()
		if phase == phStop {
			return
		}
		meas := phase == phMeasure
		sub := &w.sub[win.sub.Load()]
		timed := meas && seq%every == 0
		var buf []byte
		if n := len(pool); n > 0 {
			buf, pool = pool[n-1], pool[:n-1]
		} else {
			buf = make([]byte, hdrLen)
		}
		var dl time.Duration
		armed := r.next()%10 < svcArmedPerTen
		if armed {
			dl = armedDeadline
		}
		var t0, t1, t2 int64
		if timed {
			t0 = now()
		}
		putPayload(buf, id(pid, seq), t0)
		_, err := s.Enqueue(buf, dl)
		w.attempts++
		if err != nil {
			w.failed++
			pool = append(pool, buf)
			continue
		}
		w.sent.add(pid, seq)
		seq++
		if timed {
			t1 = now()
		}
		v, ok := s.TryDequeue()
		if timed {
			t2 = now()
			sub.pair.add(t2 - t0)
			sub.enq.add(t1 - t0)
			if w.deq != nil {
				if armed {
					w.enqArmed.add(t1 - t0)
				} else {
					w.enqPlain.add(t1 - t0)
				}
				w.deq.add(t2 - t1)
				if seq%spanEvery == 0 && !w.spans.full() {
					name := "qsvc.enq"
					if armed {
						name = "qsvc.enq_armed"
					}
					root := w.spans.root("pair", int64(id(pid, seq-1)), t0, t2)
					w.spans.child(root, name, t0, t1)
					w.spans.child(root, "qsvc.deq", t1, t2)
				}
			}
		}
		if ok {
			w.tally.seePayload(v, svcLen)
			if stamp := payloadStamp(v); stamp != 0 && meas {
				if !timed {
					t2 = now()
				}
				sub.deliver.add(t2 - stamp)
			}
			pool = append(pool, v)
		}
		if meas {
			w.pairs++
			w.deqs++
			sub.ops++
			if ok {
				sub.ops++
			} else {
				w.empty++
			}
		}
	}
}

// svcLen is the payload size of every svc-pairs message.
func svcLen(int, int64) int { return hdrLen }

// all lists one sampler of every sub-window of every worker.
func all(ws []*worker, f func(*subRec) *sampler) []*sampler {
	var out []*sampler
	for _, w := range ws {
		for i := range w.sub {
			out = append(out, f(&w.sub[i]))
		}
	}
	return out
}

func pick(ws []*worker, f func(*worker) *sampler) []*sampler {
	out := make([]*sampler, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

func verifyWorkers(ws []*worker, expired int64) error {
	prod := make([]sent, len(ws))
	cons := make([]*tally, len(ws))
	for i, w := range ws {
		prod[i] = w.sent
		cons[i] = w.tally
	}
	return verify(prod, cons, expired)
}
