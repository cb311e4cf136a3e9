package core

import "sync/atomic"

// Metrics counts the algorithm's internal events, per thread, when the
// queue is built with WithMetrics. The counters quantify the §3.3/§4
// discussion directly: the paper attributes the base version's slowdown
// to "scenarios in which all threads try to help the same (or a few)
// thread(s), wasting the total processing time" — visible here as a high
// HelpsGiven/OpsStarted ratio and a high AppendCASFailures count — and
// credits optimization 1 with removing that herd.
//
// All counters are monotone and safe to read concurrently; reads are
// racy snapshots (the usual fate of statistics).
type Metrics struct {
	counters []metricCounters
}

// metricCounters is one thread's padded counter block.
type metricCounters struct {
	// OpsStarted counts Enqueue+Dequeue invocations by this thread.
	opsStarted atomic.Int64
	// HelpScans counts state-array entries inspected in help().
	helpScans atomic.Int64
	// HelpsGiven counts help_enq/help_deq calls for ANOTHER thread's
	// operation.
	helpsGiven atomic.Int64
	// AppendCASFailures counts failed Line 74 CASes (lost append races).
	appendCASFailures atomic.Int64
	// DescCASFailures counts failed operation-record CASes (Lines 93,
	// 120, 131, 149) executed by this thread.
	descCASFailures atomic.Int64
	// TailFixes / HeadFixes count successful Line 94 / Line 150 CASes.
	tailFixes atomic.Int64
	headFixes atomic.Int64
	// FastEnqHits / FastDeqHits count operations completed on the
	// VariantFast lock-free fast path (no descriptor published);
	// FastFallbacks counts patience exhaustions — operations that fell
	// back to the wait-free helping protocol. The fallback rate is
	// FastFallbacks / OpsStarted.
	fastEnqHits   atomic.Int64
	fastDeqHits   atomic.Int64
	fastFallbacks atomic.Int64
	// FastGateSkips counts operations that skipped the fast path because
	// a slow-path operation was published (the slowPending gate): how
	// often the anti-starvation gate actually diverted traffic.
	fastGateSkips atomic.Int64
	// DeqClaimFailures counts lost fast-path deqTid claim races.
	deqClaimFailures atomic.Int64
	// BatchEnqs / BatchDeqs count EnqueueBatch/DequeueBatch invocations
	// that took the batch path (len >= 2); BatchEnqElems/BatchDeqElems
	// count the elements they moved. Elems/Batches is the realized
	// amortization factor.
	batchEnqs     atomic.Int64
	batchEnqElems atomic.Int64
	batchDeqs     atomic.Int64
	batchDeqElems atomic.Int64
}

// newMetrics allocates counter blocks for nthreads threads.
func newMetrics(nthreads int) *Metrics {
	return &Metrics{counters: make([]metricCounters, nthreads)}
}

// Snapshot is an immutable copy of one thread's counters.
type Snapshot struct {
	OpsStarted        int64
	HelpScans         int64
	HelpsGiven        int64
	AppendCASFailures int64
	DescCASFailures   int64
	TailFixes         int64
	HeadFixes         int64
	FastEnqHits       int64
	FastDeqHits       int64
	FastFallbacks     int64
	FastGateSkips     int64
	DeqClaimFailures  int64
	BatchEnqs         int64
	BatchEnqElems     int64
	BatchDeqs         int64
	BatchDeqElems     int64
}

// FastHits is the total number of operations completed on the fast path.
func (s Snapshot) FastHits() int64 { return s.FastEnqHits + s.FastDeqHits }

// Add returns the field-wise sum of two snapshots — the aggregation step
// of Total and of cross-shard rollups.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.OpsStarted += o.OpsStarted
	s.HelpScans += o.HelpScans
	s.HelpsGiven += o.HelpsGiven
	s.AppendCASFailures += o.AppendCASFailures
	s.DescCASFailures += o.DescCASFailures
	s.TailFixes += o.TailFixes
	s.HeadFixes += o.HeadFixes
	s.FastEnqHits += o.FastEnqHits
	s.FastDeqHits += o.FastDeqHits
	s.FastFallbacks += o.FastFallbacks
	s.FastGateSkips += o.FastGateSkips
	s.DeqClaimFailures += o.DeqClaimFailures
	s.BatchEnqs += o.BatchEnqs
	s.BatchEnqElems += o.BatchEnqElems
	s.BatchDeqs += o.BatchDeqs
	s.BatchDeqElems += o.BatchDeqElems
	return s
}

// FallbackRate is the fraction of started operations that exhausted their
// fast-path patience and fell back to the helping protocol (0 when no
// operation has started).
func (s Snapshot) FallbackRate() float64 {
	if s.OpsStarted == 0 {
		return 0
	}
	return float64(s.FastFallbacks) / float64(s.OpsStarted)
}

// Thread returns a snapshot of thread tid's counters.
func (m *Metrics) Thread(tid int) Snapshot {
	c := &m.counters[tid]
	return Snapshot{
		OpsStarted:        c.opsStarted.Load(),
		HelpScans:         c.helpScans.Load(),
		HelpsGiven:        c.helpsGiven.Load(),
		AppendCASFailures: c.appendCASFailures.Load(),
		DescCASFailures:   c.descCASFailures.Load(),
		TailFixes:         c.tailFixes.Load(),
		HeadFixes:         c.headFixes.Load(),
		FastEnqHits:       c.fastEnqHits.Load(),
		FastDeqHits:       c.fastDeqHits.Load(),
		FastFallbacks:     c.fastFallbacks.Load(),
		FastGateSkips:     c.fastGateSkips.Load(),
		DeqClaimFailures:  c.deqClaimFailures.Load(),
		BatchEnqs:         c.batchEnqs.Load(),
		BatchEnqElems:     c.batchEnqElems.Load(),
		BatchDeqs:         c.batchDeqs.Load(),
		BatchDeqElems:     c.batchDeqElems.Load(),
	}
}

// Total sums all threads' counters.
func (m *Metrics) Total() Snapshot {
	var t Snapshot
	for i := range m.counters {
		t = t.Add(m.Thread(i))
	}
	return t
}

// The increment helpers compile to nothing when metrics are disabled
// (m == nil), keeping the measured hot path identical to the unmetered
// queue up to one predictable nil check per site.

func (m *Metrics) incOp(tid int) {
	if m != nil {
		m.counters[tid].opsStarted.Add(1)
	}
}
func (m *Metrics) incScan(tid int) {
	if m != nil {
		m.counters[tid].helpScans.Add(1)
	}
}
func (m *Metrics) incHelp(tid int) {
	if m != nil {
		m.counters[tid].helpsGiven.Add(1)
	}
}
func (m *Metrics) incAppendFail(tid int) {
	if m != nil {
		m.counters[tid].appendCASFailures.Add(1)
	}
}
func (m *Metrics) incDescFail(tid int) {
	if m != nil {
		m.counters[tid].descCASFailures.Add(1)
	}
}
func (m *Metrics) incTailFix(tid int) {
	if m != nil {
		m.counters[tid].tailFixes.Add(1)
	}
}
func (m *Metrics) incHeadFix(tid int) {
	if m != nil {
		m.counters[tid].headFixes.Add(1)
	}
}
func (m *Metrics) incFastEnq(tid int) {
	if m != nil {
		m.counters[tid].fastEnqHits.Add(1)
	}
}
func (m *Metrics) incFastDeq(tid int) {
	if m != nil {
		m.counters[tid].fastDeqHits.Add(1)
	}
}
func (m *Metrics) incFastExpired(tid int) {
	if m != nil {
		m.counters[tid].fastFallbacks.Add(1)
	}
}
func (m *Metrics) incGateSkip(tid int) {
	if m != nil {
		m.counters[tid].fastGateSkips.Add(1)
	}
}
func (m *Metrics) incDeqClaimFail(tid int) {
	if m != nil {
		m.counters[tid].deqClaimFailures.Add(1)
	}
}
func (m *Metrics) incBatchEnq(tid int, k int) {
	if m != nil {
		m.counters[tid].batchEnqs.Add(1)
		m.counters[tid].batchEnqElems.Add(int64(k))
	}
}
func (m *Metrics) incBatchDeq(tid int, k int) {
	if m != nil {
		m.counters[tid].batchDeqs.Add(1)
		m.counters[tid].batchDeqElems.Add(int64(k))
	}
}
