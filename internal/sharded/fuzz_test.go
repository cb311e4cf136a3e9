package sharded

import (
	"testing"

	"wfq/internal/core"
	"wfq/internal/model"
)

// buildFuzzQueue constructs a frontend whose shape the fuzzer controls:
// shard count 1..8, thread count 1..4, and one of three shard mixes —
// uniform fast-path queues, uniform slow-path Opt12 queues, or an
// alternation of fast, plain, and hazard-pointer shards. Sequential
// behaviour must be identical across mixes, which is exactly what the
// lockstep differential below checks.
func buildFuzzQueue(nshards, nthreads, flavor int) *Queue[int64] {
	switch flavor % 3 {
	case 0:
		return New[int64](nthreads, nshards, core.WithFastPath(0))
	case 1:
		return New[int64](nthreads, nshards, core.WithVariant(core.VariantOpt12))
	default:
		shards := make([]Shard[int64], nshards)
		for i := range shards {
			switch i % 3 {
			case 0:
				shards[i] = core.New[int64](nthreads, core.WithFastPath(0))
			case 1:
				shards[i] = core.NewHP[int64](nthreads, 0, 0)
			default:
				shards[i] = core.New[int64](nthreads)
			}
		}
		return NewOf[int64](nthreads, shards)
	}
}

// FuzzSharded drives arbitrary single-goroutine programs of single and
// batch operations over fuzzer-chosen shard counts, thread usage and
// shard mixes, in lockstep with the sequential specification
// (model.Sharded). Checked per step: dequeue results (value and
// emptiness), returned tickets, and batch compaction; at the end, total
// length and ticket counters.
func FuzzSharded(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{7, 3, 2, 0x42, 0x17, 0xfe, 0x03, 0x81, 0x2a})
	f.Add([]byte("sharded-fuzz-seed"))
	f.Add([]byte{5, 1, 2, 6, 6, 6, 7, 7, 7, 4, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		nshards := int(data[0])%8 + 1
		nthreads := int(data[1])%4 + 1
		q := buildFuzzQueue(nshards, nthreads, int(data[2]))
		ref := model.NewSharded(nshards)

		next := int64(0)
		dst := make([]int64, 6)
		for step, b := range data[3:] {
			tid := int(b>>6) % nthreads
			k := int(b>>2)%5 + 1
			switch b & 3 {
			case 0: // single enqueue
				next++
				ticket := q.EnqueueTicket(tid, next)
				if want := ref.Enqueue(next); ticket != want {
					t.Fatalf("step %d: enq ticket %d, want %d", step, ticket, want)
				}
			case 1: // single dequeue
				v, ok, _ := q.DequeueTicket(tid)
				rv, rok := ref.Dequeue()
				if ok != rok || (ok && v != rv) {
					t.Fatalf("step %d: deq (%d,%v), want (%d,%v)", step, v, ok, rv, rok)
				}
			case 2: // batch enqueue of k
				vs := make([]int64, k)
				for j := range vs {
					next++
					vs[j] = next
				}
				first := q.EnqueueBatchTicket(tid, vs)
				for j, v := range vs {
					if want := ref.Enqueue(v); j == 0 && first != want {
						t.Fatalf("step %d: batch first ticket %d, want %d", step, first, want)
					}
				}
			default: // batch dequeue of k
				n := q.DequeueBatch(tid, dst[:k])
				var want []int64
				for j := 0; j < k; j++ {
					if rv, rok := ref.Dequeue(); rok {
						want = append(want, rv)
					}
				}
				if n != len(want) {
					t.Fatalf("step %d: batch deq n=%d, want %d", step, n, len(want))
				}
				for j, rv := range want {
					if dst[j] != rv {
						t.Fatalf("step %d: batch deq dst=%v, want %v", step, dst[:n], want)
					}
				}
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("len %d, want %d", q.Len(), ref.Len())
		}
		st := q.DispatchStats()
		wantDepths := ref.Snapshot()
		for i, d := range q.ShardDepths() {
			if d != len(wantDepths[i]) {
				t.Fatalf("shard %d depth %d, want %d", i, d, len(wantDepths[i]))
			}
		}
		if st.EnqTickets != uint64(next) { // one ticket per enqueued value
			t.Fatalf("EnqTickets=%d, want %d", st.EnqTickets, next)
		}
	})
}
