package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"wfq"
	"wfq/internal/core"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/wire"
	"wfq/internal/ring"
)

// perLayer lists the traced run's metrics in output order, with units.
var perLayer = []struct{ name, unit string }{
	{"load.lag_p99_us", "us"},
	{"load.cpu_us_per_op", "us"},
	{"client.enq_call_p50_us", "us"},
	{"client.deq_call_p50_us", "us"},
	{"client.deq_empty_ratio", "ratio"},
	{"wire.req_codec_ns", "ns"},
	{"wire.resp_codec_ns", "ns"},
	{"wire.allocs_per_op", "count"},
	{"server.cpu_us_per_op", "us"},
	{"server.syscalls_per_op", "count"},
	{"server.bytes_per_op", "B"},
	{"server.ctxsw_per_op", "count"},
	{"server.busy_ratio", "ratio"},
	{"qsvc.enq_ns_p50", "ns"},
	{"qsvc.enq_armed_ns_p50", "ns"},
	{"qsvc.deq_ns_p50", "ns"},
	{"qsvc.tick_us_p99", "us"},
	{"qsvc.depth_max", "count"},
	{"qsvc.tombstone_ratio", "ratio"},
	{"qsvc.rejected", "count"},
	{"qsvc.expired", "count"},
	{"facade.enq_ns_p50", "ns"},
	{"facade.deq_ns_p50", "ns"},
	{"facade.allocs_per_pair", "count"},
	{"core.helps_per_op", "count"},
	{"core.desc_cas_fail_per_op", "count"},
	{"core.append_cas_fail_per_op", "count"},
	{"ring.pair_ns", "ns"},
	{"ring.slow_ratio", "ratio"},
	{"ring.burns_per_op", "count"},
	{"gc.cycles_per_mop", "count"},
	{"gc.pause_p99_us", "us"},
	{"ledger.ring_pair_ns", "ns"},
	{"ledger.qsvc_pair_ns", "ns"},
	{"ledger.qsvc_armed_pair_ns", "ns"},
	{"ledger.wire_codec_pair_ns", "ns"},
	{"ledger.tcp_pair_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// sideMarker names, for each workload, a metric only its traced pass
// measures: a traced run of another workload runs it briefly when that
// metric is still missing.
var sideMarker = []struct{ workload, metric string }{
	{"wire-pairs", "client.enq_call_p50_us"},
	{"svc-pairs", "qsvc.enq_ns_p50"},
	{"kp-pairs", "facade.enq_ns_p50"},
	{"wire-open", "load.lag_p99_us"},
}

// traceDir, relative to the checkout's root, receives traced runs' spans.
var traceDir = filepath.Join(".bench_build", "traces")

const (
	sideSeconds = 1.0
	sideWarm    = 200 * time.Millisecond
)

// gcSample is one reading of the runtime's allocator and collector.
type gcSample struct {
	cycles, allocs uint64
	pauses         *metrics.Float64Histogram
}

var gcNames = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:objects", "/sched/pauses/total/gc:seconds"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// gcDelta is the collector's work between two samples.
type gcDelta struct {
	cycles, allocs uint64
	pauseP99us     float64
}

func gcBetween(a, b gcSample) gcDelta {
	d := gcDelta{cycles: b.cycles - a.cycles, allocs: b.allocs - a.allocs}
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return d
	}
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	need := uint64(float64(total)*0.99 + 0.999999)
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= need {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report its upper
			// edge unless that is +Inf.
			hi := b.pauses.Buckets[i+1]
			if hi > 1e300 {
				hi = b.pauses.Buckets[i]
			}
			d.pauseP99us = hi * 1e6
			break
		}
	}
	return d
}

// layerWindow runs a pass's measured window, reading this process's
// CPU time and the runtime's GC counters at its edges.
func (b *bench) layerWindow(p *pass, win *window, warm time.Duration, seconds float64, atStart, atEnd func()) gcDelta {
	var g0, g1 gcSample
	var c0, c1 procSample
	win.run(warm, time.Duration(seconds*float64(time.Second)), func() {
		g0, c0 = readGC(), readProc(0)
		if atStart != nil {
			atStart()
		}
	}, func() {
		g1, c1 = readGC(), readProc(0)
		if atEnd != nil {
			atEnd()
		}
	})
	p.selfTicks = c1.cpuTicks - c0.cpuTicks
	p.gc = gcBetween(g0, g1)
	return p.gc
}

// setLoadLayers reports the generator's and the runtime's share.
func (p *pass) setLoadLayers() {
	req := float64(max(p.requests, 1))
	p.setLayer("load.cpu_us_per_op", float64(p.selfTicks)/clkTck*1e6/req)
	p.setLayer("gc.cycles_per_mop", float64(p.gc.cycles)/(req/1e6))
	p.setLayer("gc.pause_p99_us", p.gc.pauseP99us)
}

func (b *bench) runTraced() (*result, error) {
	wl := workloads[b.workload]
	b.traced = false
	base, err := wl(b, max(b.seconds/2, 1))
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	b.traced = true
	main, err := wl(b, b.seconds)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	main.setLoadLayers()
	problems := append(base.problems(), main.problems()...)
	layers := main.layers
	from := map[string]string{}
	for k := range layers {
		from[k] = b.workload
	}
	fill := func(src string, m map[string]float64) {
		for k, v := range m {
			if _, ok := layers[k]; !ok {
				layers[k] = v
				from[k] = src
			}
		}
	}
	frames := main.frames
	warm := b.warm
	b.warm = sideWarm
	for _, s := range sideMarker {
		if _, ok := layers[s.metric]; ok {
			continue
		}
		sp, err := workloads[s.workload](b, sideSeconds)
		if err != nil {
			return nil, fmt.Errorf("side pass %s: %w", s.workload, err)
		}
		if sp.checkErr != nil {
			problems = append(problems, s.workload+" side pass: "+sp.checkErr.Error())
		}
		if frames == nil {
			frames = sp.frames
		}
		fill(s.workload, sp.layers)
	}
	b.warm = warm
	fill("codec replay", codecReplay(frames))
	fill("core pass", corePass(sideSeconds))
	fill("ring pass", ringPass(sideSeconds))
	led, err := ledger(b.serverBin)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	fill("ledger", led)
	baseTput := float64(base.ops) / base.window.Seconds()
	mainTput := float64(main.ops) / main.window.Seconds()
	layers["trace.overhead_ratio"] = mainTput / baseTput
	from["trace.overhead_ratio"] = "traced vs untraced " + b.workload

	res := &result{Attempted: base.attempted + main.attempted, Failed: base.failed + main.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	sort.Strings(problems)
	res.Correct = len(problems) == 0
	doc := map[string]any{
		"env":                    b.stamp(),
		"metrics":                res.Metrics,
		"measured_by":            from,
		"untraced_throughput":    baseTput,
		"traced_throughput":      mainTput,
		"problems":               problems,
		"samples":                main.sampleCounts(),
		"notes":                  main.notes,
		"span_sampling":          fmt.Sprintf("closed loops keep every %dth in-process pair and every wire pair, up to %d spans per client", spanEvery, spanLimit),
		"end_to_end_not_printed": "end-to-end metrics come from untraced runs only",
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err := writeTrace(path, doc, main.spans); err != nil {
		b.warn("writing %s: %v", path, err)
	}
	info, _ := json.Marshal(map[string]any{"env": b.stamp(), "trace_file": path, "measured_by": from, "problems": problems})
	fmt.Println(string(info))
	return res, nil
}

// codecReplay pushes the recorded request/response mix through the wire
// codec and framing over an in-memory buffer: ns per request and per
// response, and heap allocations per request+response.
func codecReplay(frames []frame) map[string]float64 {
	if len(frames) == 0 {
		frames = []frame{{verb: wire.VEnq, size: hdrLen, status: wire.StOK}, {verb: wire.VDeq, status: wire.StOK, respSize: hdrLen}}
	}
	reqs := make([]wire.Request, len(frames))
	resps := make([]wire.Response, len(frames))
	for i, f := range frames {
		reqs[i] = wire.Request{Verb: f.verb, Name: wireQueue, WaitNs: f.wait}
		if f.verb == wire.VEnq {
			reqs[i].Payload = make([]byte, f.size)
			if f.deadline {
				reqs[i].DeadlineNs = int64(armedDeadline)
			}
		}
		resps[i] = wire.Response{Status: f.status, Payload: make([]byte, f.respSize)}
	}
	var bb bytes.Buffer
	var buf []byte
	reqHalf := func() {
		for i := range reqs {
			buf, _ = reqs[i].EncodeRequest(buf[:0])
			_ = wire.WriteFrame(&bb, buf)
			body, _ := wire.ReadFrame(&bb)
			_, _ = wire.DecodeRequest(body)
		}
	}
	respHalf := func() {
		for i := range resps {
			buf = resps[i].EncodeResponse(buf[:0])
			_ = wire.WriteFrame(&bb, buf)
			body, _ := wire.ReadFrame(&bb)
			_, _ = wire.DecodeResponse(body)
		}
	}
	reqHalf()
	respHalf()
	perOp := func(f func()) float64 {
		var rounds []float64
		for r := 0; r < 5; r++ {
			n, t0 := 0, now()
			for now()-t0 < int64(30*time.Millisecond) {
				f()
				n += len(frames)
			}
			rounds = append(rounds, float64(now()-t0)/float64(n))
		}
		return median(rounds)
	}
	g0 := readGC()
	reqHalf()
	respHalf()
	g1 := readGC()
	return map[string]float64{
		"wire.req_codec_ns":  perOp(reqHalf),
		"wire.resp_codec_ns": perOp(respHalf),
		"wire.allocs_per_op": float64(g1.allocs-g0.allocs) / float64(len(frames)),
	}
}

// pairsFor runs op on workers goroutines for seconds and returns the
// elapsed time and the number of ops each goroutine completed.
func pairsFor(seconds float64, op func(tid int) int64) (time.Duration, int64) {
	var stop sync.WaitGroup
	var done, total = make(chan struct{}), make([]int64, workers)
	t0 := now()
	for i := 0; i < workers; i++ {
		stop.Add(1)
		go func(tid int) {
			defer stop.Done()
			for {
				select {
				case <-done:
					return
				default:
					total[tid] += op(tid)
				}
			}
		}(i)
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	close(done)
	stop.Wait()
	var n int64
	for _, t := range total {
		n += t
	}
	return time.Duration(now() - t0), n
}

const batch = 256

// corePass runs the facade's default engine (Opt12) built through
// internal/core with WithMetrics, on kp-pairs' op mix.
func corePass(seconds float64) map[string]float64 {
	q := core.New[int](workers, core.WithVariant(core.VariantOpt12), core.WithMetrics())
	pairsFor(seconds, func(tid int) int64 {
		for i := 0; i < batch; i++ {
			q.Enqueue(tid, i)
			q.Dequeue(tid)
		}
		return batch
	})
	t := q.Metrics().Total()
	ops := float64(max(t.OpsStarted, 1))
	return map[string]float64{
		"core.helps_per_op":           float64(t.HelpsGiven) / ops,
		"core.desc_cas_fail_per_op":   float64(t.DescCASFailures) / ops,
		"core.append_cas_fail_per_op": float64(t.AppendCASFailures) / ops,
	}
}

// ringPass runs a bare ring engine, configured as qsvc's ring backend,
// on svc-pairs' op mix.
func ringPass(seconds float64) map[string]float64 {
	q := ring.New[uint64](qsvc.DefaultMaxThreads, 0)
	el, pairs := pairsFor(seconds, func(tid int) int64 {
		for i := 0; i < batch; i++ {
			q.Enqueue(tid, uint64(i))
			q.Dequeue(tid)
		}
		return batch
	})
	st := q.Stats()
	ops := float64(max(2*pairs, 1))
	return map[string]float64{
		"ring.pair_ns":      float64(el) * workers / float64(max(pairs, 1)),
		"ring.slow_ratio":   float64(st.SlowEnqs+st.SlowDeqs) / ops,
		"ring.burns_per_op": float64(st.DeqBurns) / ops,
	}
}

// ledger prices one uncontended enqueue+dequeue pair at each layer
// boundary, one goroutine, median of five rounds.
func ledger(serverBin string) (map[string]float64, error) {
	perPair := func(roundNs int64, f func()) float64 {
		var rounds []float64
		for r := 0; r < 5; r++ {
			n, t0 := 0, now()
			for now()-t0 < roundNs {
				for i := 0; i < batch; i++ {
					f()
				}
				n += batch
			}
			rounds = append(rounds, float64(now()-t0)/float64(n))
		}
		return median(rounds)
	}
	out := map[string]float64{}
	const round = int64(40 * time.Millisecond)

	fq := wfq.New[uint64](qsvc.DefaultMaxThreads, wfq.WithRing(0))
	h, err := fq.Handle()
	if err != nil {
		return nil, err
	}
	out["ledger.ring_pair_ns"] = perPair(round, func() {
		h.Enqueue(1)
		h.Dequeue()
	})
	h.Release()

	reg := qsvc.NewRegistry[[]byte]()
	q, err := reg.Create(svcQueue, qsvc.Config{Backend: qsvc.BackendRing})
	if err != nil {
		return nil, err
	}
	s, err := q.Session()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, hdrLen)
	out["ledger.qsvc_pair_ns"] = perPair(round, func() {
		_, _ = s.Enqueue(payload, 0)
		s.TryDequeue()
	})
	n := 0
	out["ledger.qsvc_armed_pair_ns"] = perPair(round, func() {
		_, _ = s.Enqueue(payload, armedDeadline)
		s.TryDequeue()
		// The sweep collects completed deadline records; the server
		// runs it every millisecond, here every 1024 pairs.
		if n++; n%1024 == 0 {
			reg.Tick(time.Now())
		}
	})
	s.Release()

	enq := wire.Request{Verb: wire.VEnq, Name: wireQueue, Payload: payload}
	deq := wire.Request{Verb: wire.VDeq, Name: wireQueue}
	ok := wire.Response{Status: wire.StOK}
	got := wire.Response{Status: wire.StOK, Payload: payload}
	var buf []byte
	out["ledger.wire_codec_pair_ns"] = perPair(round, func() {
		buf, _ = enq.EncodeRequest(buf[:0])
		_, _ = wire.DecodeRequest(buf)
		buf = ok.EncodeResponse(buf[:0])
		_, _ = wire.DecodeResponse(buf)
		buf, _ = deq.EncodeRequest(buf[:0])
		_, _ = wire.DecodeRequest(buf)
		buf = got.EncodeResponse(buf[:0])
		_, _ = wire.DecodeResponse(buf)
	})

	r, err := newRig(serverBin, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()
	c := r.conns[0]
	var tcpErr error
	out["ledger.tcp_pair_us"] = perPair(round/8, func() {
		if err := c.Enqueue(wireQueue, payload, 0); err != nil {
			tcpErr = err
		}
		if _, _, err := c.Dequeue(wireQueue, 0); err != nil {
			tcpErr = err
		}
	}) / 1e3
	return out, tcpErr
}
