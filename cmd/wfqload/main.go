// Command wfqload drives a running wfqserve with closed- or open-loop
// traffic and verdicts the run: zero lost envelopes, zero duplicated
// envelopes, expired requests all observed a deadline error. A nonzero
// exit means conservation was violated.
//
// Modes:
//
//	wfqload -addr HOST:PORT -quick          # smoke: small closed loop, assert conservation
//	wfqload -addr HOST:PORT -profile poisson -rate 8000 -duration 2s
//	wfqload -addr HOST:PORT -bench -json results/BENCH_qsvc.json
//
// -bench runs the committed snapshot matrix: a Poisson arrival-rate
// sweep over the ring backend, a bursty run against a tight
// admission cap, and a closed-loop run with -users simulated users
// (default 10000). Every row carries the conservation verdict and the
// server-side queue-delay percentiles; the document is stamped with the
// environment like the other results/BENCH_*.json files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wfq/internal/campaign"
	"wfq/internal/qsvc/load"
)

// benchDoc is the schema of results/BENCH_qsvc.json.
type benchDoc struct {
	Series string         `json:"series"`
	Env    campaign.Env   `json:"env"`
	Rows   []*load.Result `json:"rows"`
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7411", "wfqserve address")
		queue     = flag.String("queue", "load", "queue name to create and drive")
		backend   = flag.String("backend", "ring", "backend: ring|sharded-ring")
		profile   = flag.String("profile", "closed", "closed|poisson|bursty")
		users     = flag.Int("users", 10000, "closed-loop simulated users")
		rate      = flag.Float64("rate", 8000, "open-loop mean arrivals/sec")
		duration  = flag.Duration("duration", 2*time.Second, "offered-load phase length")
		conns     = flag.Int("conns", 64, "producer connections")
		consumers = flag.Int("consumers", 16, "consumer connections")
		armed     = flag.Float64("armed", 0.1, "fraction of requests carrying a deadline (enqueue-and-wait)")
		deadline  = flag.Duration("deadline", 100*time.Millisecond, "per-request deadline for armed requests")
		depth     = flag.Int("depth", 0, "admission depth cap (0 = unbounded)")
		payload   = flag.Int("payload", 64, "payload bytes per envelope")
		think     = flag.Duration("think", 0, "closed-loop per-user think time")
		jsonOut   = flag.String("json", "", "write run result(s) as JSON to this path")
		quick     = flag.Bool("quick", false, "small fixed closed-loop smoke (overrides sizing flags)")
		bench     = flag.Bool("bench", false, "run the BENCH_qsvc snapshot matrix")
	)
	flag.Parse()

	if *bench {
		runBench(*addr, *users, *duration, *jsonOut)
		return
	}

	cfg := load.Config{
		Addr:          *addr,
		Queue:         *queue,
		Backend:       *backend,
		Profile:       *profile,
		Users:         *users,
		Rate:          *rate,
		Duration:      *duration,
		Conns:         *conns,
		Consumers:     *consumers,
		ArmedFraction: *armed,
		Deadline:      *deadline,
		MaxDepth:      *depth,
		Payload:       *payload,
		Think:         *think,
	}
	if *quick {
		cfg.Profile = "closed"
		cfg.Users = 512
		cfg.Conns = 32
		cfg.Consumers = 8
		cfg.Duration = 500 * time.Millisecond
		cfg.ArmedFraction = 0.2
		cfg.Deadline = 100 * time.Millisecond
	}

	res := mustRun(cfg)
	report(res)
	if *jsonOut != "" {
		writeJSON(*jsonOut, res)
	}
	if res.Lost != 0 || res.Duplicated != 0 {
		os.Exit(1)
	}
}

func mustRun(cfg load.Config) *load.Result {
	res, err := load.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfqload: %v\n", err)
		os.Exit(1)
	}
	return res
}

func report(r *load.Result) {
	shape := fmt.Sprintf("users=%d", r.Users)
	if r.Profile != "closed" {
		shape = fmt.Sprintf("rate=%.0f/s", r.RateTarget)
	}
	fmt.Printf("%-8s %-6s %-14s sent=%-8d delivered=%-8d expired=%-6d rejected=%-6d lost=%d dup=%d  qdelay p50=%v p99=%v  rtt p50=%v p99=%v\n",
		r.Profile, r.Backend, shape,
		r.Sent, r.Received, r.Expired, r.Rejected, r.Lost, r.Duplicated,
		r.QueueDelay.P50, r.QueueDelay.P99, r.EnqueueRTT.P50, r.EnqueueRTT.P99)
	if r.Lost != 0 || r.Duplicated != 0 {
		fmt.Fprintf(os.Stderr, "wfqload: CONSERVATION VIOLATED: lost=%d duplicated=%d\n", r.Lost, r.Duplicated)
	}
}

// runBench executes the committed snapshot matrix against one server.
// Queue names are unique per row (queues persist server-side).
func runBench(addr string, users int, dur time.Duration, jsonOut string) {
	if jsonOut == "" {
		jsonOut = "results/BENCH_qsvc.json"
	}
	var rows []*load.Result
	failed := false
	add := func(cfg load.Config) {
		res := mustRun(cfg)
		report(res)
		if res.Lost != 0 || res.Duplicated != 0 {
			failed = true
		}
		rows = append(rows, res)
	}

	// Poisson arrival-rate sweep.
	for _, rate := range []float64{2000, 8000, 32000} {
		add(load.Config{
			Addr:          addr,
			Queue:         fmt.Sprintf("sweep-ring-%.0f", rate),
			Backend:       "ring",
			Profile:       "poisson",
			Rate:          rate,
			Duration:      dur,
			Conns:         64,
			Consumers:     16,
			ArmedFraction: 0.1,
			Deadline:      100 * time.Millisecond,
		})
	}
	// Bursty overload against a tight admission cap: rejections are the
	// expected, typed outcome; conservation must still hold.
	add(load.Config{
		Addr:      addr,
		Queue:     "bursty-capped",
		Backend:   "ring",
		Profile:   "bursty",
		Rate:      16000,
		Duration:  dur,
		Conns:     32,
		Consumers: 2,
		MaxDepth:  256,
	})
	// Starved deadlines: every request armed, a lone consumer that
	// cannot keep up — the timeout sweep must expire the backlog and
	// every expired request must observe the deadline error (they are
	// exactly the Expired count; none may surface downstream).
	add(load.Config{
		Addr:          addr,
		Queue:         "starved-deadline",
		Backend:       "ring",
		Profile:       "closed",
		Users:         128,
		Conns:         128,
		Consumers:     1,
		Duration:      dur / 2,
		ArmedFraction: 1.0,
		Deadline:      2 * time.Millisecond,
	})
	// Closed loop at scale: the acceptance row.
	add(load.Config{
		Addr:          addr,
		Queue:         "closed-10k",
		Backend:       "ring",
		Profile:       "closed",
		Users:         users,
		Duration:      dur,
		Conns:         128,
		Consumers:     16,
		ArmedFraction: 0.05,
		Deadline:      time.Second,
		Think:         time.Millisecond,
	})

	writeJSON(jsonOut, &benchDoc{Series: "qsvc", Env: campaign.CaptureEnv(), Rows: rows})
	fmt.Printf("wfqload: wrote %d rows to %s\n", len(rows), jsonOut)
	if failed {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "wfqload: %v\n", err)
			os.Exit(1)
		}
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfqload: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "wfqload: %v\n", err)
		os.Exit(1)
	}
}
