package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfq/internal/memprobe"
)

// SpaceConfig parameterizes the Figure 10 space-overhead experiment.
type SpaceConfig struct {
	// InitialSize pre-fills the queue (the figure's x-axis,
	// 10^0..10^7 in the paper).
	InitialSize int
	// Threads run the enqueue-dequeue-pairs workload during sampling
	// (8 in the paper).
	Threads int
	// Samples is the number of forced-GC live-heap samples (9 in the
	// paper).
	Samples int
	// Interval separates successive samples.
	Interval time.Duration
}

// DefaultSpaceConfig mirrors the paper's parameters, with a sampling
// interval sized for this harness.
func DefaultSpaceConfig(initialSize int) SpaceConfig {
	return SpaceConfig{
		InitialSize: initialSize,
		Threads:     8,
		Samples:     9,
		Interval:    5 * time.Millisecond,
	}
}

// SpaceRun measures the mean live-heap bytes while alg runs the pairs
// workload over a queue pre-filled with cfg.InitialSize elements.
//
// Following the paper's methodology, the metric is the size of LIVE
// objects after a collection (the JVM's post-GC heap statistic). To make
// each forced collection observe a quiescent heap — rather than whichever
// float garbage the faster algorithm happened to have in flight — the
// workers pause at an operation-batch boundary around every sample; the
// paper's 10 GiB fixed JVM heap achieved the same effect by making
// transient garbage irrelevant next to the measured live set.
func SpaceRun(alg Algorithm, cfg SpaceConfig) (meanLiveBytes float64, err error) {
	if cfg.InitialSize < 0 || cfg.Threads <= 0 || cfg.Samples <= 0 {
		return 0, fmt.Errorf("harness: bad space config %+v", cfg)
	}
	q := alg.New(cfg.Threads)
	for i := 0; i < cfg.InitialSize; i++ {
		q.Enqueue(0, int64(i))
	}

	var stop atomic.Bool
	var gate sync.RWMutex // workers hold RLock per batch; sampler takes Lock
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
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
	samples := make([]uint64, 0, cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		if s > 0 {
			time.Sleep(cfg.Interval)
		}
		gate.Lock()
		samples = append(samples, memprobe.LiveHeap())
		gate.Unlock()
	}
	stop.Store(true)
	wg.Wait()

	// Keep the queue reachable until after the last sample so the
	// forced GCs could not collect it mid-measurement.
	runtime.KeepAlive(q)
	return memprobe.Mean(samples), nil
}

// SpacePoint is one cell of Figure 10: the live-heap ratio of an
// algorithm against the LF baseline at one initial queue size.
type SpacePoint struct {
	InitialSize int
	Algorithm   string
	Bytes       float64
	Ratio       float64 // Bytes / LF-bytes at the same size
}

// SpaceSweep measures base-WF/LF and opt-WF(1+2)/LF live-heap ratios over
// the given initial sizes — the two series of Figure 10 — plus ring-WF/LF,
// which puts the ring's bounded segment footprint next to the paper's
// per-node overhead. repeats runs are averaged per cell (the paper
// averaged ten).
func SpaceSweep(sizes []int, cfg SpaceConfig, repeats int) ([]SpacePoint, error) {
	if repeats <= 0 {
		return nil, fmt.Errorf("harness: repeats must be positive")
	}
	algs := []Algorithm{LF(), BaseWF(), OptWF12(), RingWF()}
	var out []SpacePoint
	for _, size := range sizes {
		c := cfg
		c.InitialSize = size
		means := make([]float64, len(algs))
		for i, alg := range algs {
			var sum float64
			for r := 0; r < repeats; r++ {
				m, err := SpaceRun(alg, c)
				if err != nil {
					return nil, err
				}
				sum += m
			}
			means[i] = sum / float64(repeats)
		}
		lf := means[0]
		for i, alg := range algs {
			out = append(out, SpacePoint{
				InitialSize: size,
				Algorithm:   alg.Name,
				Bytes:       means[i],
				Ratio:       means[i] / lf,
			})
		}
	}
	return out, nil
}
