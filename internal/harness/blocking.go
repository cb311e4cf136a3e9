package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfq/internal/queues"
)

// BlockingMode selects the consumer strategy of a blocking-workload
// measurement.
type BlockingMode int

// The three measurement modes: the spin-poll baseline (the repo's
// pre-lifecycle consumer idiom — hot Dequeue loop, burning a core while
// idle), the parking consumers (DequeueCtx), and a producers-only
// calibration run whose CPU time is subtracted from the other two to
// isolate the consumers' share.
const (
	BlockingSpin BlockingMode = iota
	BlockingPark
	BlockingProducersOnly
)

// String names the mode in reports.
func (m BlockingMode) String() string {
	switch m {
	case BlockingSpin:
		return "spin"
	case BlockingPark:
		return "park"
	case BlockingProducersOnly:
		return "producers-only"
	default:
		return fmt.Sprintf("BlockingMode(%d)", int(m))
	}
}

// BlockingConfig describes a low-duty-cycle produce/consume run — the
// regime blocking consumers exist for: work arrives rarely, and the
// consumer cost that matters is what it burns while IDLE.
type BlockingConfig struct {
	// Producers and Consumers are the goroutine counts; the queue is
	// built for Producers+Consumers threads (producers take tids
	// 0..Producers-1).
	Producers, Consumers int
	// Duration is the production phase length; after it the producers
	// stop, the queue is closed, and consumers drain out.
	Duration time.Duration
	// Interval and Burst shape the duty cycle: every Interval each
	// producer enqueues Burst timestamped elements back to back, then
	// sleeps. Duty cycle ≈ Burst·cost(enqueue)/Interval — the defaults
	// (1ms, 10) land near 1% at this repo's ~µs enqueue cost.
	Interval time.Duration
	Burst    int
	// Profile disturbs scheduling during the run; its GOMAXPROCS and
	// BackgroundLoad apply as in RunMeasured.
	Profile Profile
}

func (c BlockingConfig) withDefaults() BlockingConfig {
	if c.Producers <= 0 {
		c.Producers = 4
	}
	if c.Consumers < 0 {
		c.Consumers = 0
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	return c
}

// BlockingResult is one mode's observations.
type BlockingResult struct {
	Algorithm string
	Mode      BlockingMode
	// Produced and Delivered count elements through the queue.
	Produced, Delivered int64
	// Wall is the total run time (production phase + drain).
	Wall time.Duration
	// CPU is the PROCESS cpu time consumed across the run (user+sys,
	// getrusage) — producers included; subtract a BlockingProducersOnly
	// run to isolate the consumers. CPUSupported is false where the
	// platform cannot report it.
	CPU          time.Duration
	CPUSupported bool
	// GOMAXPROCS is the effective scheduler width during the run.
	GOMAXPROCS int
	// Percentiles summarize delivery latency — enqueue timestamp to
	// dequeue, which in park mode is dominated by the park→wake path.
	Percentiles
}

// String renders one report row.
func (r BlockingResult) String() string {
	cpu := "n/a"
	if r.CPUSupported {
		cpu = r.CPU.String()
	}
	return fmt.Sprintf("%-16s %-14s produced=%-8d delivered=%-8d cpu=%-12s p50=%-10v p99=%-10v max=%v",
		r.Algorithm, r.Mode, r.Produced, r.Delivered, cpu, r.P50, r.P99, r.Max)
}

// MeasureBlocking runs one blocking-workload measurement. The algorithm
// must build a queues.Lifecycled queue (the wfq facade or the sharded
// frontend): the run is terminated by Close, and park mode consumes
// through DequeueCtx.
func MeasureBlocking(alg Algorithm, cfg BlockingConfig, mode BlockingMode) (BlockingResult, error) {
	cfg = cfg.withDefaults()
	if mode == BlockingProducersOnly {
		cfg.Consumers = 0
	} else if cfg.Consumers <= 0 {
		cfg.Consumers = 1
	}
	q := alg.New(cfg.Producers + cfg.Consumers)
	lc, ok := q.(queues.Lifecycled)
	if !ok {
		return BlockingResult{}, fmt.Errorf("harness: %s does not support the blocking/lifecycle API", alg.Name)
	}
	needMisses := 1
	if tq, ok := q.(queues.Ticketed); ok {
		needMisses = tq.Shards()
	}

	var produced, delivered atomic.Int64
	perConsumer := make([][]float64, cfg.Consumers)
	var prodWG, consWG sync.WaitGroup

	restore := cfg.Profile.apply()
	defer restore()
	effProcs := runtime.GOMAXPROCS(0)

	cpu0, cpuOK := processCPU()
	t0 := time.Now()
	deadline := t0.Add(cfg.Duration)

	for p := 0; p < cfg.Producers; p++ {
		prodWG.Add(1)
		go func(tid int) {
			defer prodWG.Done()
			for time.Now().Before(deadline) {
				for b := 0; b < cfg.Burst; b++ {
					if lc.TryEnqueue(tid, time.Now().UnixNano()) != nil {
						return
					}
					produced.Add(1)
				}
				time.Sleep(cfg.Interval)
			}
		}(p)
	}

	for c := 0; c < cfg.Consumers; c++ {
		consWG.Add(1)
		go func(ci int) {
			defer consWG.Done()
			tid := cfg.Producers + ci
			lat := make([]float64, 0, 4096)
			switch mode {
			case BlockingPark:
				ctx := context.Background()
				for {
					v, err := lc.DequeueCtx(ctx, tid)
					if err != nil {
						break // ErrClosed: drained
					}
					lat = append(lat, float64(time.Now().UnixNano()-v))
					delivered.Add(1)
				}
			case BlockingSpin:
				// The baseline idiom this PR retires from the tools: a
				// hot poll loop with the n-consecutive-empties drain
				// heuristic (sound here because Close returns only
				// after the enqueue side quiesced).
				misses := 0
				for {
					if v, ok := q.Dequeue(tid); ok {
						lat = append(lat, float64(time.Now().UnixNano()-v))
						delivered.Add(1)
						misses = 0
						continue
					}
					if lc.Closed() {
						misses++
						if misses >= needMisses {
							break
						}
					}
				}
			}
			perConsumer[ci] = lat
		}(c)
	}

	prodWG.Wait()
	if err := lc.Close(); err != nil {
		return BlockingResult{}, fmt.Errorf("harness: close: %w", err)
	}
	consWG.Wait()
	if mode == BlockingSpin {
		// The per-consumer consecutive-miss heuristic can fire early on
		// a sharded queue when several consumers interleave tickets (the
		// defect the close-driven drain replaces); sweep the leftovers
		// single-threaded so conservation still holds for the baseline.
		misses := 0
		for misses < needMisses {
			if _, ok := q.Dequeue(0); ok {
				delivered.Add(1)
				misses = 0
			} else {
				misses++
			}
		}
	}
	wall := time.Since(t0)
	cpu1, cpuOK2 := processCPU()

	res := BlockingResult{
		Algorithm:    alg.Name,
		Mode:         mode,
		Produced:     produced.Load(),
		Delivered:    delivered.Load(),
		Wall:         wall,
		CPU:          cpu1 - cpu0,
		CPUSupported: cpuOK && cpuOK2,
		GOMAXPROCS:   effProcs,
	}
	var all []float64
	for _, l := range perConsumer {
		all = append(all, l...)
	}
	res.Percentiles = percentiles(all)
	if mode != BlockingProducersOnly && res.Delivered != res.Produced {
		return res, fmt.Errorf("harness: blocking conservation: produced=%d delivered=%d", res.Produced, res.Delivered)
	}
	return res, nil
}
