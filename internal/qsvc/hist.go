package qsvc

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is the GetQDelays-style queue-delay histogram: 64 logarithmic
// buckets of atomic counters, bucket i counting observations whose
// nanosecond value has bit-length i (i.e. ns in [2^(i-1), 2^i)). One
// Observe costs two atomic adds and a max load and never allocates;
// percentiles are reconstructed from the buckets with bucket-upper-
// bound resolution (a factor-of-two ceiling — fine for the "is p99
// milliseconds or seconds" question observability answers).
//
// A Queue keeps one Hist per session cell (see cell), so the adds land
// on a cache line only the delivering session writes; Delays sums the
// cells' buckets on read.
type Hist struct {
	sum atomic.Int64
	max atomic.Int64
	bkt [64]atomic.Int64
}

// Observe records one latency in nanoseconds (negative clamps to 0).
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	h.bkt[bits.Len64(uint64(ns))].Add(1)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// DelaySnapshot is a point-in-time summary of a Hist, shaped for the
// stats wire verb and the bench JSON.
type DelaySnapshot struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot summarizes the histogram. Concurrent Observes make it a racy
// (but internally monotone) snapshot, which is all monitoring needs.
func (h *Hist) Snapshot() DelaySnapshot {
	var t histTotals
	t.add(h)
	return t.snapshot()
}

// histTotals accumulates several Hists into one summary: bucket counts
// and sums add, maxima take the largest.
type histTotals struct {
	counts [64]int64
	sum    int64
	max    int64
}

func (t *histTotals) add(h *Hist) {
	for i := range h.bkt {
		t.counts[i] += h.bkt[i].Load()
	}
	t.sum += h.sum.Load()
	t.max = max(t.max, h.max.Load())
}

func (t *histTotals) snapshot() DelaySnapshot {
	total := int64(0)
	for _, c := range t.counts {
		total += c
	}
	s := DelaySnapshot{Count: total, Max: time.Duration(t.max)}
	if total == 0 {
		return s
	}
	s.Mean = time.Duration(t.sum / total)
	s.P50 = quantile(&t.counts, total, 0.50)
	s.P90 = quantile(&t.counts, total, 0.90)
	s.P99 = quantile(&t.counts, total, 0.99)
	return s
}

// quantile returns the upper bound of the bucket holding the q-quantile
// observation.
func quantile(counts *[64]int64, total int64, q float64) time.Duration {
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum > rank {
			if i == 0 {
				return 0
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return 0 // unreachable: cum reaches total > rank
}
