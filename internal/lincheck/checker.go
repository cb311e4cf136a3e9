package lincheck

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wfq/internal/model"
)

// Result is the outcome of a linearizability check.
type Result int

// Check outcomes.
const (
	// Linearizable: a witness linearization order exists.
	Linearizable Result = iota
	// NotLinearizable: the search space was exhausted with no witness.
	NotLinearizable
	// Unknown: the step budget ran out before a verdict.
	Unknown
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Linearizable:
		return "linearizable"
	case NotLinearizable:
		return "NOT linearizable"
	default:
		return "unknown (budget exhausted)"
	}
}

// ErrBadHistory reports a structurally invalid history (e.g. a response
// before its invocation), which indicates a recorder bug rather than a
// queue bug.
var ErrBadHistory = errors.New("lincheck: malformed history")

// Checker runs the Wing–Gong linearizability search with Lowe-style
// memoization. Zero value is usable; set Budget to bound worst-case work.
type Checker struct {
	// Budget limits the number of DFS steps (candidate applications).
	// 0 means DefaultBudget. When exhausted the check returns Unknown.
	Budget int
	// Witness receives the linearization order found (operation IDs)
	// when the history is linearizable and Witness is non-nil.
	Witness *[]int
}

// DefaultBudget is the DFS step limit used when Checker.Budget is 0. It is
// generous: real linearizable queue histories of a few hundred operations
// check in well under this.
const DefaultBudget = 50_000_000

// memoBytes caps the memory the memoization table may hold, counted as
// key bytes plus memoEntryBytes of map overhead per entry. On a history
// with wide concurrency nearly every DFS step reaches a new state, so an
// uncapped table grows with the whole step budget (gigabytes at
// DefaultBudget). Once the cap is reached the search stops inserting and
// keeps pruning with the entries it has. Memoization only skips states
// already explored without success, so a state missing from the table is
// merely explored again: every verdict stays exact, and only the time to
// reach it (bounded by the step budget) can grow.
const (
	memoBytes      = 64 << 20
	memoEntryBytes = 64
)

// Check decides linearizability of hist against the FIFO queue spec,
// starting from an empty queue.
func (c *Checker) Check(hist []Op) (Result, error) {
	return c.CheckFrom(hist, nil)
}

// CheckFrom decides linearizability of hist against the FIFO queue spec,
// starting from a queue pre-filled with initial (oldest first). This
// supports the 50%-enqueues benchmark, whose queue starts with 1000
// elements.
func (c *Checker) CheckFrom(hist []Op, initial []int64) (Result, error) {
	n := len(hist)
	if n == 0 {
		return Linearizable, nil
	}
	for _, op := range hist {
		if op.Res < op.Inv {
			return Unknown, fmt.Errorf("%w: op %v has response before invocation", ErrBadHistory, op)
		}
	}
	budget := c.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	spec := &model.Queue{}
	for _, v := range initial {
		spec.Enqueue(v)
	}

	s := newSearch(hist, initial, budget, memoBytes)
	ok, exhausted := s.dfs(spec, 0)
	switch {
	case ok:
		if c.Witness != nil {
			*c.Witness = append([]int(nil), s.order...)
		}
		return Linearizable, nil
	case exhausted:
		return Unknown, nil
	default:
		return NotLinearizable, nil
	}
}

// CheckSharded decides linearizability of hist against the sharded
// (bag-of-FIFOs) specification of internal/sharded: every operation
// carries the shard its dispatch ticket named (Op.Shard, recorded via
// Recorder.SetShard), the history is partitioned by shard, and each
// partition must independently linearize against the FIFO specification.
//
// This is exactly the sharded queue's contract — N independent
// linearizable FIFO shards behind a wait-free dispatcher whose ticket
// assignment is the observed Shard tag — and by the locality of
// linearizability (Herlihy & Wing 1990, Theorem 1: a history is
// linearizable iff each per-object subhistory is) checking the
// partitions separately is sound and complete for it. A deq that
// reported empty must have found ITS shard empty, which the per-shard
// FIFO check enforces; no cross-shard ordering is required, which the
// partitioning grants.
//
// The verdict is the worst across shards (NotLinearizable dominates
// Unknown dominates Linearizable); c.Witness is ignored. An operation
// with Shard < 0 is ErrBadHistory: sharded checking needs every op
// tagged.
func (c *Checker) CheckSharded(hist []Op) (Result, error) {
	parts := map[int][]Op{}
	for _, op := range hist {
		if op.Shard < 0 {
			return Unknown, fmt.Errorf("%w: op %v has no shard tag", ErrBadHistory, op)
		}
		parts[op.Shard] = append(parts[op.Shard], op)
	}
	sub := Checker{Budget: c.Budget}
	worst := Linearizable
	for _, part := range parts {
		res, err := sub.Check(part)
		if err != nil {
			return Unknown, err
		}
		switch {
		case res == NotLinearizable:
			return NotLinearizable, nil
		case res == Unknown:
			worst = Unknown
		}
	}
	return worst, nil
}

type search struct {
	hist   []Op
	done   []bool
	seen   map[string]struct{}
	budget int
	order  []int
	nDone  int
	// memo is the table's accounted size; memoCap its limit.
	memo, memoCap int
	// deqOf maps each value that occurs exactly once (one enqueue, or
	// one initial element) to the index of the one successful dequeue
	// returning it, or to neverDequeued. Values that occur more often
	// are absent: the FIFO prune below does not apply to them.
	deqOf map[int64]int
}

// neverDequeued marks a value no successful dequeue returns: it stays
// in the queue to the end of the history.
const neverDequeued = -1

func newSearch(hist []Op, initial []int64, budget, memoCap int) *search {
	s := &search{
		hist:    hist,
		done:    make([]bool, len(hist)),
		seen:    make(map[string]struct{}),
		budget:  budget,
		order:   make([]int, 0, len(hist)),
		memoCap: memoCap,
		deqOf:   make(map[int64]int),
	}
	enqs := make(map[int64]int, len(hist)+len(initial))
	for _, v := range initial {
		enqs[v]++
	}
	deqs, deqAt := make(map[int64]int), make(map[int64]int)
	for i, op := range hist {
		switch {
		case op.Kind == Enq:
			enqs[op.Arg]++
		case op.OK:
			deqs[op.Ret]++
			deqAt[op.Ret] = i
		}
	}
	for v, n := range enqs {
		if n != 1 {
			continue
		}
		switch deqs[v] {
		case 0:
			s.deqOf[v] = neverDequeued
		case 1:
			s.deqOf[v] = deqAt[v]
		}
	}
	return s
}

// fifoBlocked reports that enqueuing v behind the current contents of
// spec can never complete into a legal linearization. FIFO order makes
// the dequeue of every element already queued precede the dequeue of v,
// so the branch is dead if an element ahead of v is never dequeued, or
// if v's dequeue responded before that element's dequeue was invoked.
// Only values that occur once take part, so the test is exact: it
// prunes only branches the search would otherwise explore to failure.
func (s *search) fifoBlocked(spec *model.Queue, v int64) bool {
	dv, ok := s.deqOf[v]
	if !ok || dv == neverDequeued {
		return false
	}
	for i := 0; i < spec.Len(); i++ {
		du, ok := s.deqOf[spec.At(i)]
		if !ok {
			continue
		}
		if du == neverDequeued || s.hist[dv].Res < s.hist[du].Inv {
			return true
		}
	}
	return false
}

// dfs tries to linearize the remaining operations given the current spec
// state. ok reports success; exhausted reports that the budget ran out
// somewhere below (so a false ok is not a proof of non-linearizability).
func (s *search) dfs(spec *model.Queue, depth int) (ok, exhausted bool) {
	if s.nDone == len(s.hist) {
		return true, false
	}
	if s.budget <= 0 {
		return false, true
	}
	key := s.stateKey(spec)
	if _, dup := s.seen[key]; dup {
		return false, false
	}
	if cost := len(key) + memoEntryBytes; s.memo+cost <= s.memoCap {
		s.seen[key] = struct{}{}
		s.memo += cost
	}

	// minRes is the earliest response among pending (not yet
	// linearized) operations: any operation invoked after minRes cannot
	// be linearized before the op that owns minRes, so candidates are
	// exactly the pending ops with Inv < minRes (<= is safe because
	// timestamps are unique).
	minRes := int64(1<<63 - 1)
	for i, op := range s.hist {
		if !s.done[i] && op.Res < minRes {
			minRes = op.Res
		}
	}

	anyExhausted := false
	for i, op := range s.hist {
		if s.done[i] || op.Inv > minRes {
			continue
		}
		s.budget--
		// Apply op to a forked spec state if it is legal.
		var next *model.Queue
		switch {
		case op.Kind == Enq:
			if !s.fifoBlocked(spec, op.Arg) {
				next = spec.Clone()
				next.Enqueue(op.Arg)
			}
		case op.OK:
			if v, okPeek := spec.Peek(); okPeek && v == op.Ret {
				next = spec.Clone()
				next.Dequeue()
			}
		default: // deq reported empty
			if spec.Empty() {
				next = spec // no state change; safe to share
			}
		}
		if next == nil {
			continue
		}
		s.done[i] = true
		s.nDone++
		s.order = append(s.order, op.ID)
		okBelow, exBelow := s.dfs(next, depth+1)
		if okBelow {
			return true, false
		}
		anyExhausted = anyExhausted || exBelow
		s.order = s.order[:len(s.order)-1]
		s.nDone--
		s.done[i] = false
		if s.budget <= 0 {
			return false, true
		}
	}
	return false, anyExhausted
}

// stateKey serializes (done-set, spec contents) exactly — no lossy
// hashing — so the memoization can never prune a genuinely new state.
func (s *search) stateKey(spec *model.Queue) string {
	words := (len(s.done) + 7) / 8
	buf := make([]byte, words+8*spec.Len()+8)
	for i, d := range s.done {
		if d {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	off := words
	binary.LittleEndian.PutUint64(buf[off:], uint64(spec.Len()))
	off += 8
	for _, v := range spec.Snapshot() {
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	return string(buf)
}
