// Package qsvc is the queue-service layer over the wfq facade: the
// piece that turns the library into a multi-tenant serving system. It
// provides
//
//   - a Registry of NAMED queues (create / lookup / delete), with
//     generation-keyed identities so a deleted-then-recreated name can
//     never be confused with its predecessor;
//   - a request ENVELOPE around the ring backend (optionally sharded)
//     carrying the enqueue timestamp and, optionally, a per-request
//     deadline;
//   - a Tick-driven TIMEOUT SWEEP in the style of sigmaos's
//     Queue.TimeoutReqs (see SNIPPETS.md, snippet 1): expired requests
//     are completed with a deadline error off the hot path, and the
//     state-CAS conservation rule guarantees a swept request is never
//     also delivered;
//   - queue-delay OBSERVABILITY (GetQDelays-style): a log₂-bucketed
//     enqueue→dequeue latency histogram per queue, kept like the
//     admitted/delivered/depth counters in one padded cell per session
//     identity and summed on read, so the hot path never writes a
//     cache line another worker writes;
//   - ADMISSION CONTROL: per-queue depth and inflight caps that reject
//     with the typed wfq.ErrAdmission backpressure error instead of
//     letting the queue grow without bound.
//
// The wait-free hot path is preserved: a request WITHOUT a deadline
// moves through the underlying queue as a by-value envelope — no
// completion handle, no timer, no allocation beyond what the backend
// itself does (asserted by TestNoDeadlinePathAllocParity), and its
// counting is adds to the session's own cell. Only
// deadline-armed requests pay for a completion record and a slot in the
// deadline heap.
//
// Admission stamps, deadlines and queue delays are all read on one
// process-wide monotonic clock: nanoseconds since the package's epoch,
// one clock read per request side. Registry.Tick and Queue.Sweep take
// a time.Time and place it on that clock with now.Sub(epoch), which
// uses the monotonic reading whenever now carries one (any time.Now()
// value does), and Req.Deadline maps back with epoch.Add. A wall-clock
// step therefore never expires a request early or late, nor skews the
// delay histogram.
//
// The TCP front end lives in internal/qsvc/server (protocol in
// internal/qsvc/wire, client in internal/qsvc/client); the load
// generator driving it is internal/qsvc/load.
package qsvc

import (
	"errors"
	"fmt"
	"time"

	"wfq"
)

// epoch is the origin of the package clock.
var epoch = time.Now()

// clock reads the package clock: monotonic nanoseconds since epoch. It
// is cheaper than time.Now, which also reads the wall clock.
func clock() int64 { return int64(time.Since(epoch)) }

// clockAt places t on the package clock.
func clockAt(t time.Time) int64 { return int64(t.Sub(epoch)) }

// Registry errors. Queue-level conditions reuse the facade's typed
// sentinels: wfq.ErrClosed (deleted or closed queues), wfq.ErrAdmission
// (cap rejections), wfq.ErrDeadlineExceeded (swept requests).
var (
	// ErrExists reports a Create of a name that is already registered.
	ErrExists = errors.New("qsvc: queue already exists")
	// ErrNotFound reports an operation on a name with no live queue.
	ErrNotFound = errors.New("qsvc: queue not found")
)

// DefaultMaxThreads is the per-queue concurrency bound used when a
// Config leaves MaxThreads zero: it sizes the backend's helping state
// and the session (handle) namespace.
const DefaultMaxThreads = 256

// Backend selects which facade engine a queue runs on. The ring engine
// is the only one served: it beats the KP fast path at every measured
// thread count (results/ring/BENCH_campaign_pairs_g2.json).
type Backend uint8

// BackendRing is the ring-segment storage engine (WithRing), the zero
// Backend.
const BackendRing Backend = 0

// String names the backend as the flag/wire layers spell it.
func (Backend) String() string { return "ring" }

// ParseBackend maps a flag/wire spelling onto a Backend plus an implied
// shard count (0 = unsharded): "" and "ring" select the ring engine,
// "sharded-ring" four ring shards unless the Config overrides Shards
// explicitly.
func ParseBackend(s string) (Backend, int, error) {
	switch s {
	case "", "ring":
		return BackendRing, 0, nil
	case "sharded-ring":
		return BackendRing, 4, nil
	default:
		return BackendRing, 0, fmt.Errorf("qsvc: unknown backend %q (want ring or sharded-ring)", s)
	}
}

// Config describes one named queue. The zero value is a usable default:
// ring backend, DefaultMaxThreads sessions, no caps.
type Config struct {
	// Backend selects the engine; Shards > 1 puts the ticket dispatcher
	// in front of it; SegSize tunes the ring segment size (0 default).
	Backend Backend
	Shards  int
	SegSize int
	// MaxThreads bounds concurrently operating sessions (0 selects
	// DefaultMaxThreads).
	MaxThreads int
	// MaxDepth caps the number of live (admitted, not yet delivered or
	// expired) requests in the queue; 0 means unlimited. An enqueue
	// that would exceed it fails with wfq.ErrAdmission.
	MaxDepth int
	// MaxInflight caps the number of deadline-armed requests pending at
	// once (the size of the timeout-sweep working set); 0 means
	// unlimited. An armed enqueue that would exceed it fails with
	// wfq.ErrAdmission.
	MaxInflight int
}

// options translates the Config into facade options.
func (c Config) options() []wfq.Option {
	opts := []wfq.Option{wfq.WithRing(c.SegSize)}
	if c.Shards > 1 {
		opts = append(opts, wfq.WithShards(c.Shards))
	}
	return opts
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	if c.MaxThreads <= 0 {
		c.MaxThreads = DefaultMaxThreads
	}
	return c
}
