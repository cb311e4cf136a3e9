// Command perfbench is the repository's benchmark: the wait-free queue
// measured end to end through the TCP queue service and layer by layer
// down to the paper's KP engine.
//
// Usage (from the repository root; run.sh builds it and wfqserve):
//
//	perfbench -server <wfqserve binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (BENCHMARK.json gates svc-pairs and kp-pairs):
//
//	svc-pairs   2 goroutines with qsvc.Sessions on one ring named queue, Enqueue → TryDequeue, 10% armed,
//	            Registry.Tick every 1ms
//	kp-pairs    2 goroutines on wfq.New[int] (Opt12), Handle.Enqueue → Dequeue
//	wire-pairs  2 client.Conns to a wfqserve process, each looping Enqueue(16 B) → Dequeue(non-blocking)
//	wire-open   seeded Poisson arrivals (5000/s, 16 B–4 KiB, 25% with a 1s deadline), 1 producer Conn,
//	            1 consumer Conn making bounded blocking dequeues; each message is timed from its due time
//
// The two wire workloads are not gated. On a 2-CPU host shared with
// other tenants, the client, the server and the loopback TCP stack
// compete for the same CPUs, so whenever the host is contended
// wire-pairs' p99s spread by 100% or more from run to run. wire-open's
// consumer connection runs close to capacity at 5000/s, so its p99s
// swing several-fold. Both stay runnable by name. A traced run of a
// gated workload runs each briefly, for the client, wire and server
// layers, the generator's lag and wire-open's per-message span split.
//
// An untraced run (--trace 0) prints the end-to-end metrics. The
// measured window is cut into one-second sub-windows; every metric is
// the median of its per-sub-window value (throughput, or a percentile
// of that sub-window's own samples), over the sub-windows in which the
// host stole under 5% of the CPUs. A traced run (--trace 1) prints the
// per-layer metrics, with the tracing overhead, and writes its spans to
// .bench_build/traces/.
//
// Every run checks that no message was lost or duplicated and that each
// producer's messages arrived in order. The last line of standard
// output is the JSON result; the line before it stamps the host, Go
// version, git SHA and seed and gives sample counts. A run whose
// outputs are wrong exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"wfq/internal/qsvc"
)

var epoch = time.Now()

// now is monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

type bench struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	serverBin string
	warm      time.Duration
	warnings  []string
}

func (b *bench) warn(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.warnings = append(b.warnings, msg)
	fmt.Fprintln(os.Stderr, "perfbench: warning:", msg)
}

var workloads = map[string]func(*bench, float64) (*pass, error){
	"wire-pairs": runWirePairs,
	"wire-open":  runWireOpen,
	"svc-pairs":  runSvc,
	"kp-pairs":   runKP,
}

func main() {
	var b bench
	var trace int
	flag.StringVar(&b.workload, "workload", "", "workload name")
	flag.Int64Var(&b.seed, "seed", 1, "input seed")
	flag.Float64Var(&b.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&b.serverBin, "server", "", "wfqserve binary")
	flag.Parse()
	b.traced = trace == 1
	b.warm = 500 * time.Millisecond
	if _, ok := workloads[b.workload]; !ok || b.serverBin == "" || b.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server <wfqserve> --workload wire-pairs|wire-open|svc-pairs|kp-pairs --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if runtime.NumCPU() < workers {
		b.warn("%d workers exceed the %d CPUs of this host", workers, runtime.NumCPU())
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the host, toolchain, code and input of a result.
func (b *bench) stamp() map[string]any {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	if v := os.Getenv("PERFBENCH_GIT_SHA"); v != "" {
		sha = v
	}
	return map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"traced":     b.traced,
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"git_sha":    sha,
		"warnings":   b.warnings,
	}
}

func (b *bench) run() (*result, error) {
	if b.traced {
		return b.runTraced()
	}
	p, err := workloads[b.workload](b, b.seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(p)}
	problems := p.problems()
	res.Correct = len(problems) == 0
	var tput []float64
	var steal []int64
	for _, s := range p.subs {
		tput = append(tput, s.tput)
		steal = append(steal, s.steal)
	}
	info := map[string]any{"env": b.stamp(), "samples": p.sampleCounts(), "sub_throughput": tput, "sub_steal_ticks": steal,
		"measured_subs": len(p.measured()), "notes": p.notes, "problems": problems}
	line, _ := json.Marshal(info)
	fmt.Println(string(line))
	return res, nil
}

// minClean is the fewest steal-free sub-windows the end-to-end metrics
// are taken from; with fewer, every sub-window counts.
const minClean = 3

// measured lists the sub-windows the end-to-end metrics come from: the
// ones without host steal, if there are at least minClean of them.
func (p *pass) measured() []subStat {
	var clean []subStat
	for _, s := range p.subs {
		if s.clean {
			clean = append(clean, s)
		}
	}
	if len(clean) < minClean {
		return p.subs
	}
	return clean
}

// endToEnd derives the user-visible metrics of an untraced pass: each
// is the median of its value over the measured sub-windows.
func endToEnd(p *pass) map[string]metric {
	subs := p.measured()
	us := func(f func(subStat) dist, q float64) metric {
		var v []float64
		for _, s := range subs {
			v = append(v, f(s).q(q)/1e3)
		}
		return metric{median(v), "us"}
	}
	var tput []float64
	for _, s := range subs {
		tput = append(tput, s.tput)
	}
	ok := 1.0
	if p.attempted > 0 {
		ok = float64(p.attempted-p.failed) / float64(p.attempted)
	}
	return map[string]metric{
		"setup_s":          {median(p.setup), "s"},
		"throughput_ops_s": {median(tput), "1/s"},
		"pair_p50_us":      us(subPair, 0.5),
		"pair_p99_us":      us(subPair, 0.99),
		"enq_p50_us":       us(subEnq, 0.5),
		"enq_p99_us":       us(subEnq, 0.99),
		"deliver_p50_us":   us(subDeliver, 0.5),
		"deliver_p99_us":   us(subDeliver, 0.99),
		"ok_ratio":         {ok, "ratio"},
		"mem_peak_mb":      {p.memMB, "MB"},
	}
}

// subStat is one sub-window's throughput and latency samples.
type subStat struct {
	tput               float64
	pair, enq, deliver dist
	clean              bool // no host steal in it or the one before
	steal              int64
}

func subPair(s subStat) dist    { return s.pair }
func subEnq(s subStat) dist     { return s.enq }
func subDeliver(s subStat) dist { return s.deliver }

// pass is the outcome of running one workload once.
type pass struct {
	attempted, failed int64
	ops               int64 // enqueues + successful dequeues in the window
	requests          int64 // calls into the system in the window
	pairs, deqs       int64
	empty             int64
	window            time.Duration
	setup             []float64
	subs              []subStat
	memMB             float64
	checkErr          error
	invalid           []string
	notes             map[string]any
	layers            map[string]float64
	selfTicks         int64 // this process's CPU ticks in the window
	gc                gcDelta
	spans             []span
	frames            []frame
}

func (p *pass) setLayer(name string, v float64) {
	if p.layers == nil {
		p.layers = make(map[string]float64)
	}
	p.layers[name] = v
}

func (p *pass) note(k string, v any) {
	if p.notes == nil {
		p.notes = make(map[string]any)
	}
	p.notes[k] = v
}

// collect folds the closed-loop workers' records into the pass. An
// in-process pass's mem_peak_mb is the largest resident set sampled at
// the sub-window edges; a wire pass has set the server's peak already.
func (p *pass) collect(ws []*worker, win *window) {
	for _, w := range ws {
		p.attempted += w.attempts
		p.failed += w.failed
		p.pairs += w.pairs
		p.deqs += w.deqs
		p.empty += w.empty
		if w.spans != nil {
			off := len(p.spans)
			for _, s := range w.spans.spans {
				if s.Parent >= 0 {
					s.Parent += off // parents index the worker's own log
				}
				p.spans = append(p.spans, s)
			}
		}
	}
	p.requests = p.pairs + p.deqs
	p.window = win.dur()
	p.subs = make([]subStat, win.n)
	for k := range p.subs {
		var ops int64
		var pair, enq, deliver []*sampler
		for _, w := range ws {
			s := &w.sub[k]
			ops += s.ops
			pair, enq, deliver = append(pair, s.pair), append(enq, s.enq), append(deliver, s.deliver)
		}
		p.ops += ops
		p.subs[k] = subStat{
			tput: float64(ops) / (float64(win.edges[k+1]-win.edges[k]) / 1e9),
			pair: merge(pair...), enq: merge(enq...), deliver: merge(deliver...),
			clean: win.clean(k), steal: win.steal[k+1] - win.steal[k],
		}
	}
	if p.memMB == 0 { // in process: the workload's own peak, sampled
		p.memMB = float64(win.rssMaxKB) / 1024
	}
}

// setQsvcCounts reports the queue's counters.
func (p *pass) setQsvcCounts(st qsvc.Stats, depthMax int64) {
	p.setLayer("qsvc.depth_max", float64(depthMax))
	p.setLayer("qsvc.tombstone_ratio", float64(st.Tombstones)/float64(max(st.Delivered+st.Tombstones, 1)))
	p.setLayer("qsvc.rejected", float64(st.Rejected))
	p.setLayer("qsvc.expired", float64(st.Expired))
}

// sampleCounts reports, per latency metric, the samples in each
// sub-window.
func (p *pass) sampleCounts() map[string][]int {
	out := map[string][]int{}
	for _, s := range p.subs {
		out["pair"] = append(out["pair"], s.pair.n())
		out["enq"] = append(out["enq"], s.enq.n())
		out["deliver"] = append(out["deliver"], s.deliver.n())
	}
	return out
}

// problems lists why a pass's outputs cannot be trusted: a failed
// correctness check, an invalid run, or a percentile with fewer than
// ten samples beyond it.
func (p *pass) problems() []string {
	var out []string
	if p.checkErr != nil {
		out = append(out, "correctness: "+p.checkErr.Error())
	}
	out = append(out, p.invalid...)
	for k, s := range p.subs {
		for name, d := range map[string]dist{"pair": s.pair, "enq": s.enq, "deliver": s.deliver} {
			if d.beyond(0.99) < 10 {
				out = append(out, fmt.Sprintf("%s, sub-window %d: %d samples, fewer than 10 beyond p99", name, k, d.n()))
			}
		}
	}
	if p.attempted == 0 || p.window <= 0 {
		out = append(out, "no operations attempted")
	}
	sort.Strings(out)
	return out
}
