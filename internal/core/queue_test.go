package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"wfq/internal/model"
	"wfq/internal/phase"
)

// testQueue is the common shape of Queue[int64] and HPQueue[int64].
type testQueue interface {
	Enqueue(tid int, v int64)
	Dequeue(tid int) (int64, bool)
	Len() int
	NumThreads() int
	Name() string
}

// hpAdapter adapts HPQueue's Dequeue (value semantics identical) — both
// already satisfy testQueue; this type exists only for documentation.
var (
	_ testQueue = (*Queue[int64])(nil)
	_ testQueue = (*HPQueue[int64])(nil)
)

// flavour is one algorithm configuration under test.
type flavour struct {
	name string
	make func(nthreads int) testQueue
}

// flavours enumerates every configuration the sequential and concurrent
// suites must pass: the four paper variants, the §3.3 enhancements in all
// combinations, the FAA phase provider, and the §3.4 HP queue.
func flavours() []flavour {
	fs := []flavour{
		{"base", func(n int) testQueue { return New[int64](n) }},
		{"opt1", func(n int) testQueue { return New[int64](n, WithVariant(VariantOpt1)) }},
		{"opt2", func(n int) testQueue { return New[int64](n, WithVariant(VariantOpt2)) }},
		{"opt12", func(n int) testQueue { return New[int64](n, WithVariant(VariantOpt12)) }},
		// The +cache, +clear and +validate flavours name the §3.3
		// knobs the in-place operation records subsume (ALGORITHM.md):
		// they now build the same queue as the flavour without them.
		{"base+cache", func(n int) testQueue { return New[int64](n) }},
		{"base+clear", func(n int) testQueue { return New[int64](n) }},
		{"base+cache+clear", func(n int) testQueue { return New[int64](n) }},
		{"opt12+cache+clear", func(n int) testQueue { return New[int64](n, WithVariant(VariantOpt12)) }},
		{"opt12+faa", func(n int) testQueue {
			return New[int64](n, WithVariant(VariantOpt12), WithPhaseProvider(phase.NewFAA()))
		}},
		{"opt1+chunk2", func(n int) testQueue {
			return New[int64](n, WithVariant(VariantOpt1), WithHelpChunk(2))
		}},
		{"opt12+random", func(n int) testQueue {
			return New[int64](n, WithVariant(VariantOpt12), WithRandomHelping())
		}},
		{"base+validate", func(n int) testQueue { return New[int64](n) }},
		{"opt12+validate+cache+clear", func(n int) testQueue {
			return New[int64](n, WithVariant(VariantOpt12))
		}},
		{"hp", func(n int) testQueue { return NewHP[int64](n, 0, 0) }},
		{"hp-tiny-pool", func(n int) testQueue { return NewHP[int64](n, 4, 4) }},
		{"fast", func(n int) testQueue { return New[int64](n, WithFastPath(0)) }},
		// patience=1 maximizes fallbacks: any lost race drops the
		// operation into the helping protocol, exercising the fast/slow
		// boundary continuously.
		{"fast-patience1", func(n int) testQueue { return New[int64](n, WithFastPath(1)) }},
		{"fast+validate+cache+clear", func(n int) testQueue { return New[int64](n, WithFastPath(4)) }},
		{"hp-fast", func(n int) testQueue { return NewHP[int64](n, 0, 0, WithFastPath(0)) }},
		{"hp-fast-tiny-pool", func(n int) testQueue { return NewHP[int64](n, 4, 4, WithFastPath(1)) }},
	}
	return fs
}

func TestSequentialFIFO(t *testing.T) {
	for _, f := range flavours() {
		t.Run(f.name, func(t *testing.T) {
			q := f.make(4)
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("dequeue on empty succeeded")
			}
			for i := int64(0); i < 500; i++ {
				q.Enqueue(int(i)%4, i)
			}
			if q.Len() != 500 {
				t.Fatalf("len %d", q.Len())
			}
			for i := int64(0); i < 500; i++ {
				v, ok := q.Dequeue(int(i) % 4)
				if !ok || v != i {
					t.Fatalf("dequeue %d: (%d,%v)", i, v, ok)
				}
			}
			if _, ok := q.Dequeue(3); ok {
				t.Fatal("dequeue on drained succeeded")
			}
			if q.Len() != 0 {
				t.Fatalf("len %d after drain", q.Len())
			}
		})
	}
}

func TestEmptyDequeueRepeatable(t *testing.T) {
	for _, f := range flavours() {
		t.Run(f.name, func(t *testing.T) {
			q := f.make(2)
			for i := 0; i < 10; i++ {
				if _, ok := q.Dequeue(i % 2); ok {
					t.Fatalf("empty dequeue %d succeeded", i)
				}
			}
			// The queue must still work after empty dequeues.
			q.Enqueue(0, 42)
			if v, ok := q.Dequeue(1); !ok || v != 42 {
				t.Fatalf("(%d,%v)", v, ok)
			}
		})
	}
}

func TestInterleavedEnqDeq(t *testing.T) {
	for _, f := range flavours() {
		t.Run(f.name, func(t *testing.T) {
			q := f.make(2)
			next, expect := int64(0), int64(0)
			for r := 0; r < 60; r++ {
				for i := 0; i < 7; i++ {
					q.Enqueue(0, next)
					next++
				}
				for i := 0; i < 5; i++ {
					v, ok := q.Dequeue(1)
					if !ok || v != expect {
						t.Fatalf("round %d: (%d,%v), want %d", r, v, ok, expect)
					}
					expect++
				}
			}
			for expect < next {
				v, ok := q.Dequeue(0)
				if !ok || v != expect {
					t.Fatalf("drain: (%d,%v), want %d", v, ok, expect)
				}
				expect++
			}
		})
	}
}

func TestQuickVsModel(t *testing.T) {
	type op struct {
		Enq bool
		Tid uint8
		V   int64
	}
	for _, f := range flavours() {
		t.Run(f.name, func(t *testing.T) {
			if err := quick.Check(func(ops []op) bool {
				const n = 4
				q := f.make(n)
				var ref model.Queue
				for _, o := range ops {
					tid := int(o.Tid) % n
					if o.Enq {
						q.Enqueue(tid, o.V)
						ref.Enqueue(o.V)
					} else {
						v, ok := q.Dequeue(tid)
						rv, rok := ref.Dequeue()
						if ok != rok || (ok && v != rv) {
							return false
						}
					}
				}
				return q.Len() == ref.Len()
			}, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTidValidation(t *testing.T) {
	q := New[int64](2)
	hq := NewHP[int64](2, 0, 0)
	for _, bad := range []int{-1, 2, 100} {
		for name, fn := range map[string]func(){
			"enq":    func() { q.Enqueue(bad, 1) },
			"deq":    func() { q.Dequeue(bad) },
			"hp-enq": func() { hq.Enqueue(bad, 1) },
			"hp-deq": func() { hq.Dequeue(bad) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s with tid %d did not panic", name, bad)
					}
				}()
				fn()
			}()
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", n)
				}
			}()
			New[int64](n)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHP(%d) did not panic", n)
				}
			}()
			NewHP[int64](n, 0, 0)
		}()
	}
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{
		VariantBase:  "base WF",
		VariantOpt1:  "opt WF (1)",
		VariantOpt2:  "opt WF (2)",
		VariantOpt12: "opt WF (1+2)",
	}
	for v, s := range want {
		if v.String() != s {
			t.Fatalf("variant %d: %q, want %q", v, v.String(), s)
		}
		q := New[int64](2, WithVariant(v))
		if q.Name() != s || q.VariantOf() != v {
			t.Fatalf("queue name %q variant %v", q.Name(), q.VariantOf())
		}
	}
	if Variant(99).String() != "Variant(99)" {
		t.Fatalf("unknown variant: %q", Variant(99).String())
	}
	if NewHP[int64](2, 0, 0).Name() != "base WF+HP" {
		t.Fatal("HP queue name")
	}
}

func TestHelpChunkClamping(t *testing.T) {
	// k must satisfy 1 <= k < n; out-of-range values are clamped.
	q1 := New[int64](1, WithVariant(VariantOpt1), WithHelpChunk(5))
	if q1.helpChunk != 1 {
		t.Fatalf("n=1 chunk %d", q1.helpChunk)
	}
	q2 := New[int64](4, WithVariant(VariantOpt1), WithHelpChunk(0))
	if q2.helpChunk != 1 {
		t.Fatalf("chunk 0 clamped to %d", q2.helpChunk)
	}
	q3 := New[int64](4, WithVariant(VariantOpt1), WithHelpChunk(9))
	if q3.helpChunk != 3 {
		t.Fatalf("chunk 9 clamped to %d, want 3", q3.helpChunk)
	}
	q4 := New[int64](4, WithVariant(VariantOpt1), WithHelpChunk(2))
	if q4.helpChunk != 2 {
		t.Fatalf("in-range chunk altered: %d", q4.helpChunk)
	}
}

func TestPhaseMonotone(t *testing.T) {
	// The doorway property (§3.1): each operation's phase exceeds the
	// phases of all operations that completed before it started.
	for _, variant := range []Variant{VariantBase, VariantOpt2} {
		q := New[int64](2, WithVariant(variant))
		prev := int64(-1)
		for i := 0; i < 100; i++ {
			q.Enqueue(0, int64(i))
			ph := q.state[0].phase.Load()
			if ph <= prev {
				t.Fatalf("%v: phase %d not above previous %d", variant, ph, prev)
			}
			prev = ph
		}
	}
}

func TestMaxPhaseScansAllEntries(t *testing.T) {
	q := New[int64](3)
	if got := q.maxPhase(); got != -1 {
		t.Fatalf("initial maxPhase %d", got)
	}
	q.Enqueue(2, 1) // thread 2 publishes phase 0
	if got := q.maxPhase(); got != 0 {
		t.Fatalf("maxPhase after one op: %d", got)
	}
	q.Enqueue(0, 2)
	if got := q.maxPhase(); got != 1 {
		t.Fatalf("maxPhase after two ops: %d", got)
	}
}

func TestTwoQueuesIndependent(t *testing.T) {
	a := New[int64](2)
	b := New[int64](2)
	a.Enqueue(0, 1)
	b.Enqueue(0, 2)
	if v, ok := b.Dequeue(1); !ok || v != 2 {
		t.Fatalf("b: (%d,%v)", v, ok)
	}
	if v, ok := a.Dequeue(1); !ok || v != 1 {
		t.Fatalf("a: (%d,%v)", v, ok)
	}
	if _, ok := a.Dequeue(0); ok {
		t.Fatal("a should be empty")
	}
}

func TestGenericElementTypes(t *testing.T) {
	// The queue is generic; exercise a non-integer payload.
	type payload struct {
		s string
		n int
	}
	q := New[payload](2)
	q.Enqueue(0, payload{"a", 1})
	q.Enqueue(1, payload{"b", 2})
	if v, ok := q.Dequeue(0); !ok || v.s != "a" || v.n != 1 {
		t.Fatalf("(%+v,%v)", v, ok)
	}
	if v, ok := q.Dequeue(1); !ok || v.s != "b" {
		t.Fatalf("(%+v,%v)", v, ok)
	}
	qs := NewHP[string](2, 0, 0)
	qs.Enqueue(0, "x")
	if v, ok := qs.Dequeue(1); !ok || v != "x" {
		t.Fatalf("(%q,%v)", v, ok)
	}
}

func TestClearOnExitLeavesNoNodeReference(t *testing.T) {
	// Clearing is unconditional: a returned operation's record is done
	// and holds no node that could pin the list for the GC.
	q := New[int64](2)
	q.Enqueue(0, 1)
	if rec := &q.state[0]; rec.node.Load() != nil || ctlPending(rec.ctl.Load()) {
		t.Fatalf("enqueue left ctl %#x node %p", rec.ctl.Load(), rec.node.Load())
	}
	q.EnqueueBatch(0, []int64{2, 3})
	if rec := &q.state[0]; rec.node.Load() != nil || rec.chainTail.Load() != nil {
		t.Fatalf("batch enqueue left node %p chainTail %p", rec.node.Load(), rec.chainTail.Load())
	}
	for _, want := range []int64{1, 2, 3} {
		if v, ok := q.Dequeue(1); !ok || v != want {
			t.Fatalf("(%d,%v), want %d", v, ok, want)
		}
	}
	if rec := &q.state[1]; rec.node.Load() != nil || rec.ctl.Load()&stMask != stDoneDeq {
		t.Fatalf("dequeue left ctl %#x node %p", rec.ctl.Load(), rec.node.Load())
	}
}

// TestPassedSentinelsSelfLinked pins the GC aid of the in-place records:
// head advances link every unlinkEvery-th passed slow-path sentinel to
// itself, so a stale reference to a dequeued node reaches a bounded
// chain instead of every node dequeued after it, while fast-path nodes
// keep their links (a batch appender walks its chain).
func TestPassedSentinelsSelfLinked(t *testing.T) {
	const n = 4 * unlinkEvery
	q := New[int64](2)
	for i := int64(0); i < n; i++ {
		q.Enqueue(0, i)
	}
	stale := q.headRef.Load().next.Load() // node of 0, the next sentinel
	for i := 0; i < n; i++ {
		q.Dequeue(1)
	}
	reach := 0
	for cur := stale; ; reach++ {
		next := cur.next.Load()
		if next == cur || next == nil {
			break
		}
		cur = next
	}
	if reach >= unlinkEvery {
		t.Fatalf("a stale dequeued node reaches %d nodes, want < %d", reach, unlinkEvery)
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after draining", q.Len())
	}

	f := New[int64](2, WithFastPath(0))
	f.Enqueue(0, 1)
	f.Enqueue(0, 2)
	fastFirst := f.headRef.Load().next.Load()
	second := fastFirst.next.Load()
	for i := 0; i < unlinkEvery; i++ {
		f.Dequeue(1)
	}
	if fastFirst.next.Load() != second {
		t.Fatal("fast-path node lost its link")
	}
}

func TestLenSnapshotsLinearizedState(t *testing.T) {
	q := New[int64](2)
	for i := 0; i < 5; i++ {
		q.Enqueue(0, int64(i))
	}
	if q.Len() != 5 {
		t.Fatalf("len %d", q.Len())
	}
	q.Dequeue(1)
	q.Dequeue(1)
	if q.Len() != 3 {
		t.Fatalf("len %d", q.Len())
	}
}

func ExampleQueue() {
	q := New[int64](2, WithVariant(VariantOpt12))
	q.Enqueue(0, 10)
	q.Enqueue(1, 20)
	v1, _ := q.Dequeue(0)
	v2, _ := q.Dequeue(1)
	_, ok := q.Dequeue(0)
	fmt.Println(v1, v2, ok)
	// Output: 10 20 false
}
