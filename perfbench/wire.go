package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wfq"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/client"
	"wfq/internal/qsvc/wire"
)

const (
	wireQueue = "bench"
	// probePid is the producer id of the set-up round trip's message,
	// which is not part of any workload's accounting.
	probePid = maxProducers - 1
)

// frame is one request of a run's wire traffic, kept so the traced run
// can replay the same mix through the codec alone.
type frame struct {
	verb     byte
	size     int // enqueue payload bytes
	deadline bool
	wait     int64
	status   byte
	respSize int
}

const frameLimit = 4096

// rig is a running wfqserve with connected clients and the queue made.
type rig struct {
	srv   *server
	conns []*client.Conn
}

func (r *rig) close() {
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.srv.stop()
}

// newRig launches the server, dials n connections, creates the queue
// and makes the first round trip: everything before the workload runs.
func newRig(bin string, n int) (*rig, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv}
	for i := 0; i < n; i++ {
		c, err := client.Dial(srv.addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	c := r.conns[0]
	if _, err := c.Create(wireQueue, client.CreateOptions{Backend: "ring"}); err != nil {
		r.close()
		return nil, fmt.Errorf("create: %w", err)
	}
	probe := make([]byte, hdrLen)
	putPayload(probe, id(probePid, 0), now())
	if err := c.Enqueue(wireQueue, probe, 0); err != nil {
		r.close()
		return nil, fmt.Errorf("first enqueue: %w", err)
	}
	got, ok, err := c.Dequeue(wireQueue, 0)
	if err != nil || !ok || !bytes.Equal(got, probe) {
		r.close()
		return nil, fmt.Errorf("first round trip: got %x ok=%v err=%v", got, ok, err)
	}
	return r, nil
}

// setupRig times setupBatches complete set-ups and keeps the last rig.
// Stopping the earlier servers is not timed.
func setupRig(b *bench, p *pass, n int) (*rig, error) {
	var kept *rig
	for i := 0; i < setupBatches; i++ {
		t := now()
		r, err := newRig(b.serverBin, n)
		if err != nil {
			if kept != nil {
				kept.close()
			}
			return nil, err
		}
		p.setup = append(p.setup, float64(now()-t)/1e9)
		if kept != nil {
			kept.close()
		}
		kept = r
	}
	if runtime.NumCPU() < n {
		b.warn("%d connections exceed the %d CPUs of this host", n, runtime.NumCPU())
	}
	return kept, nil
}

// serverWindow reads the server's /proc counters at the window's edges.
type serverWindow struct {
	pid    int
	s0, s1 procSample
}

func (s *serverWindow) start() { s.s0 = readProc(s.pid) }
func (s *serverWindow) end()   { s.s1 = readProc(s.pid) }

// setServerLayers derives the server.* metrics per request.
func (p *pass) setServerLayers(s *serverWindow) {
	req := float64(max(p.requests, 1))
	cpu := float64(s.s1.cpuTicks-s.s0.cpuTicks) / clkTck
	p.setLayer("server.cpu_us_per_op", cpu*1e6/req)
	p.setLayer("server.syscalls_per_op", float64(s.s1.syscalls-s.s0.syscalls)/req)
	p.setLayer("server.bytes_per_op", float64(s.s1.bytes-s.s0.bytes)/req)
	p.setLayer("server.ctxsw_per_op", float64(s.s1.ctxsw-s.s0.ctxsw)/req)
	p.setLayer("server.busy_ratio", cpu/(p.window.Seconds()*float64(runtime.NumCPU())))
	if !s.s0.ioReadable || !s.s0.statReadable {
		p.note("server_proc", "unreadable")
	}
}

// finishWire reads the queue's counters and the server's peak RSS, and
// fills the qsvc counters of a traced run.
func finishWire(b *bench, p *pass, r *rig, depthMax int64) (qsvc.Stats, error) {
	st, err := r.conns[0].Stats(wireQueue)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	p.memMB = float64(readProc(r.srv.pid()).hwmKB) / 1024
	if b.traced {
		p.setQsvcCounts(st, depthMax)
	}
	return st, nil
}

// depthGauge tracks messages admitted minus messages received, as the
// clients see them: the queue depth from outside the server. A nil
// gauge (untraced runs) records nothing.
type depthGauge struct{ in, out, max atomic.Int64 }

func (g *depthGauge) admitted() {
	if g == nil {
		return
	}
	d := g.in.Add(1) - g.out.Load()
	for m := g.max.Load(); d > m && !g.max.CompareAndSwap(m, d); m = g.max.Load() {
	}
}

func (g *depthGauge) peak() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

func (g *depthGauge) received() {
	if g != nil {
		g.out.Add(1)
	}
}

// ---- wire-pairs: closed loop, one enqueue then one non-blocking dequeue ----

func runWirePairs(b *bench, seconds float64) (*pass, error) {
	p := &pass{}
	r, err := setupRig(b, p, workers)
	if err != nil {
		return nil, err
	}
	defer r.close()
	ws := make([]*worker, workers)
	frames := make([][]frame, workers)
	errs := make([]error, workers)
	win := window{n: subWindows(seconds)}
	var gauge *depthGauge
	if b.traced {
		gauge = &depthGauge{}
	}
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = newWorker(b.traced, win.n)
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			errs[pid] = wirePairsLoop(ws[pid], r.conns[pid], pid, &win, &frames[pid], gauge)
		}(i)
	}
	sw := &serverWindow{pid: r.srv.pid()}
	b.layerWindow(p, &win, b.warm, seconds, sw.start, sw.end)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for {
		v, ok, err := r.conns[0].Dequeue(wireQueue, 0)
		if err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		if !ok {
			break
		}
		ws[0].tally.seePayload(v, svcLen)
	}
	st, err := finishWire(b, p, r, gauge.peak())
	if err != nil {
		return nil, err
	}
	p.collect(ws, &win)
	p.failed += st.Expired
	p.checkErr = verifyWorkers(ws, st.Expired)
	if b.traced {
		p.setClientLayers(merge(all(ws, func(s *subRec) *sampler { return s.enq })...),
			merge(pick(ws, func(w *worker) *sampler { return w.deq })...))
		p.setServerLayers(sw)
		for _, f := range frames {
			p.frames = append(p.frames, f...)
		}
	}
	return p, nil
}

func wirePairsLoop(w *worker, c *client.Conn, pid int, win *window, frames *[]frame, g *depthGauge) error {
	buf := make([]byte, hdrLen)
	var seq int64
	for {
		phase := win.ph.Load()
		if phase == phStop {
			return nil
		}
		meas := phase == phMeasure
		sub := &w.sub[win.sub.Load()]
		t0 := now()
		putPayload(buf, id(pid, seq), t0)
		err := c.Enqueue(wireQueue, buf, 0)
		t1 := now()
		w.attempts++
		if err != nil {
			w.failed++
			if errors.Is(err, wfq.ErrAdmission) {
				continue
			}
			return fmt.Errorf("enqueue: %w", err)
		}
		w.sent.add(pid, seq)
		seq++
		g.admitted()
		v, ok, err := c.Dequeue(wireQueue, 0)
		t2 := now()
		if err != nil {
			return fmt.Errorf("dequeue: %w", err)
		}
		if ok {
			g.received()
			w.tally.seePayload(v, svcLen)
			if meas {
				sub.deliver.add(t2 - payloadStamp(v))
			}
		}
		if !meas {
			continue
		}
		w.pairs++
		w.deqs++
		sub.ops++
		sub.pair.add(t2 - t0)
		sub.enq.add(t1 - t0)
		if ok {
			sub.ops++
		} else {
			w.empty++
		}
		if w.deq == nil {
			continue
		}
		w.deq.add(t2 - t1)
		if !w.spans.full() {
			root := w.spans.root("pair", int64(id(pid, seq-1)), t0, t2)
			w.spans.child(root, "client.enq", t0, t1)
			w.spans.child(root, "client.deq", t1, t2)
		}
		if len(*frames) < frameLimit {
			st, rs := wire.StEmpty, 0
			if ok {
				st, rs = wire.StOK, len(v)
			}
			*frames = append(*frames,
				frame{verb: wire.VEnq, size: len(buf), status: wire.StOK},
				frame{verb: wire.VDeq, status: st, respSize: rs})
		}
	}
}

// setClientLayers reports the client-side call spans.
func (p *pass) setClientLayers(enq, deq dist) {
	p.setLayer("client.enq_call_p50_us", enq.q(0.5)/1e3)
	p.setLayer("client.deq_call_p50_us", deq.q(0.5)/1e3)
	p.setLayer("client.deq_empty_ratio", float64(p.empty)/float64(max(p.deqs, 1)))
}

// ---- wire-open: seeded Poisson arrivals, one producer, one consumer ----

const (
	openRate      = 5000.0 // arrivals per second
	openMinSize   = 16
	openMaxSize   = 4096
	openArmedFrac = 0.25
	openDeqWait   = 20 * time.Millisecond
	// openLagLimit invalidates a run whose generator sent late: a
	// lateness this large is the generator's, not the system's.
	openLagLimit = time.Millisecond
	// deliverLimit is the delivery latency limit for deliver_p99_us.
	deliverLimit = 2 * time.Millisecond
)

type arrival struct {
	at    int64 // ns after the run's start
	size  int
	armed bool
}

// schedule draws the run's arrivals from seed: exponential gaps at
// rate, log-uniform payload sizes, and a fraction of deadline-armed
// enqueues.
func schedule(seed int64, rate float64, span time.Duration) []arrival {
	r := rand.New(rand.NewSource(seed))
	lo, hi := math.Log(openMinSize), math.Log(openMaxSize)
	var out []arrival
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate * 1e9
		if t >= float64(span) {
			return out
		}
		size := int(math.Exp(lo + r.Float64()*(hi-lo)))
		out = append(out, arrival{at: int64(t), size: min(max(size, openMinSize), openMaxSize), armed: r.Float64() < openArmedFrac})
	}
}

type sendRec struct {
	send, ack, lag int64
	ok             bool
}

type recvRec struct{ d0, d1 int64 }

func runWireOpen(b *bench, seconds float64) (*pass, error) {
	p := &pass{}
	r, err := setupRig(b, p, 2)
	if err != nil {
		return nil, err
	}
	defer r.close()
	warm := b.warm
	sched := schedule(b.seed, openRate, warm+time.Duration(seconds*float64(time.Second)))
	sends := make([]sendRec, len(sched))
	recvs := make([]recvRec, len(sched))
	prod, cons := newWorker(false, 0), newWorker(false, 0)
	var done atomic.Bool
	var gauge *depthGauge
	if b.traced {
		gauge = &depthGauge{}
	}
	var prodErr, consErr error
	start := now() + int64(10*time.Millisecond)
	winStart, winEnd := start+int64(warm), start+int64(warm)+int64(seconds*1e9)
	inWin := func(t int64) bool { return t >= winStart && t < winEnd }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		prodErr = openProducer(r.conns[0], sched, sends, start, prod, gauge)
	}()
	go func() {
		defer wg.Done()
		consErr = openConsumer(r.conns[1], sched, recvs, &done, cons, inWin, gauge)
	}()
	win := window{n: subWindows(seconds)}
	sw := &serverWindow{pid: r.srv.pid()}
	b.layerWindow(p, &win, time.Duration(winStart-now()), seconds, sw.start, sw.end)
	wg.Wait()
	if err := errors.Join(prodErr, consErr); err != nil {
		return nil, err
	}
	st, err := finishWire(b, p, r, gauge.peak())
	if err != nil {
		return nil, err
	}
	p.checkErr = verify([]sent{prod.sent}, []*tally{cons.tally}, st.Expired)
	p.attempted = prod.attempts
	p.failed = prod.failed + st.Expired
	p.window = time.Duration(winEnd - winStart)
	p.deqs, p.empty = cons.deqs, cons.empty

	nsub := int64(win.n)
	subOf := func(t int64) int { return int((t - winStart) * nsub / (winEnd - winStart)) }
	subs := make([]subRec, nsub)
	for k := range subs {
		subs[k] = subRec{pair: newSampler(sampleCap), enq: newSampler(sampleCap), deliver: newSampler(sampleCap)}
	}
	lag, enqCall, deqCall := newSampler(sampleCap), newSampler(sampleCap), newSampler(sampleCap)
	var spans *spanLog
	if b.traced {
		spans = newSpanLog(5 * spanLimit)
	}
	late := 0
	for i, a := range sched {
		s, rc := sends[i], recvs[i]
		if s.ok && inWin(s.send) {
			p.requests++
		}
		if s.ok && inWin(s.ack) {
			subs[subOf(s.ack)].ops++
		}
		if rc.d1 != 0 && inWin(rc.d1) {
			subs[subOf(rc.d1)].ops++
		}
		due := start + a.at
		if !inWin(due) || !s.ok || rc.d1 == 0 {
			continue
		}
		sub := &subs[subOf(due)]
		sub.enq.add(s.ack - due)
		sub.deliver.add(rc.d1 - due)
		sub.pair.add(rc.d1 - s.send)
		if rc.d1-due > int64(deliverLimit) {
			late++
		}
		lag.add(s.lag)
		enqCall.add(s.ack - s.send)
		deqStart := min(max(s.ack, rc.d0), rc.d1)
		deqCall.add(rc.d1 - deqStart)
		if spans != nil && !spans.full() {
			root := spans.root("msg", int64(i), due, rc.d1)
			spans.child(root, "load.schedule_wait", due, s.send)
			spans.child(root, "client.enq", s.send, s.ack)
			spans.child(root, "queue.wait", s.ack, deqStart)
			spans.child(root, "client.deq", deqStart, rc.d1)
		}
	}
	p.requests += cons.deqs
	subSecs := p.window.Seconds() / float64(nsub)
	for k, s := range subs {
		p.ops += s.ops
		p.subs = append(p.subs, subStat{tput: float64(s.ops) / subSecs, pair: merge(s.pair), enq: merge(s.enq), deliver: merge(s.deliver), clean: win.clean(k)})
	}
	lagD := merge(lag)
	p.note("deliver_over_limit", late)
	p.note("deliver_limit_us", deliverLimit.Microseconds())
	p.note("lag_p99_us", lagD.q(0.99)/1e3)
	if lagD.q(0.99) > float64(openLagLimit) {
		p.invalid = append(p.invalid, fmt.Sprintf("generator lag p99 %.0fus exceeds %v", lagD.q(0.99)/1e3, openLagLimit))
	}
	if b.traced {
		p.setLayer("load.lag_p99_us", lagD.q(0.99)/1e3)
		p.setClientLayers(merge(enqCall), merge(deqCall))
		p.setServerLayers(sw)
		p.spans = spans.spans
		for _, a := range sched {
			if len(p.frames) >= frameLimit {
				break
			}
			p.frames = append(p.frames, frame{verb: wire.VEnq, size: a.size, deadline: a.armed, status: wire.StOK},
				frame{verb: wire.VDeq, wait: int64(openDeqWait), status: wire.StOK, respSize: a.size})
		}
	}
	return p, nil
}

// openProducer sends each arrival at its due time on one connection. It
// waits with nanosleep: runtime timers on Linux round short sleeps up to
// about a millisecond, which would make the generator, not the system,
// late. (Locking the goroutine to its thread would let the thread's
// timer slack be cut further, but a locked goroutine's wake-ups on
// network reads then stall for milliseconds at times.)
func openProducer(c *client.Conn, sched []arrival, sends []sendRec, start int64, w *worker, g *depthGauge) error {
	buf := make([]byte, openMaxSize)
	prevAck := int64(0)
	for i, a := range sched {
		due := start + a.at
		sleepUntil(due)
		send := now()
		payload := buf[:a.size]
		putPayload(payload, id(0, int64(i)), send)
		var dl time.Duration
		if a.armed {
			dl = armedDeadline
		}
		err := c.Enqueue(wireQueue, payload, dl)
		ack := now()
		w.attempts++
		sends[i] = sendRec{send: send, ack: ack, lag: send - max(due, prevAck)}
		prevAck = ack
		if err != nil {
			w.failed++
			if errors.Is(err, wfq.ErrAdmission) {
				continue
			}
			return fmt.Errorf("enqueue: %w", err)
		}
		sends[i].ok = true
		w.sent.add(0, int64(i))
		g.admitted()
	}
	return nil
}

// openConsumer takes messages with bounded blocking dequeues until the
// producer has finished and a whole wait passes with the queue empty.
func openConsumer(c *client.Conn, sched []arrival, recvs []recvRec, done *atomic.Bool, w *worker, inWin func(int64) bool, g *depthGauge) error {
	wantLen := func(pid int, seq int64) int {
		if pid != 0 || seq < 0 || seq >= int64(len(sched)) {
			return -1
		}
		return sched[seq].size
	}
	for {
		finished := done.Load()
		d0 := now()
		v, ok, err := c.Dequeue(wireQueue, openDeqWait)
		d1 := now()
		if err != nil {
			return fmt.Errorf("dequeue: %w", err)
		}
		if inWin(d0) {
			w.deqs++
			if !ok {
				w.empty++
			}
		}
		if !ok {
			if finished {
				return nil
			}
			continue
		}
		g.received()
		w.tally.seePayload(v, wantLen)
		if pid, seq := splitID(payloadID(v)); pid == 0 && seq < int64(len(recvs)) {
			recvs[seq] = recvRec{d0: d0, d1: d1}
		}
	}
}

// sleepUntil blocks the calling thread until the monotonic time t.
func sleepUntil(t int64) {
	for {
		d := t - now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop recomputes the rest
	}
}
