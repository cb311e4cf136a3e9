package core

import (
	"testing"

	"wfq/internal/model"
)

// FuzzBatchCore drives arbitrary single-goroutine sequences of batch and
// single operations through every batch-relevant configuration and the
// sequential specification in lockstep: an EnqueueBatch of k values must
// behave exactly like k model enqueues, a DequeueBatch over dst[:k] like
// up to k model dequeues. Each input byte encodes (tid, kind, width).
func FuzzBatchCore(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x80, 0x41, 0x02, 0xc3, 0x84, 0x45})
	f.Add([]byte("batch-fuzz-seed"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		const n = 3
		qs := []batchQueue{
			New[int64](n),
			New[int64](n, WithVariant(VariantOpt12)),
			New[int64](n, WithFastPath(0)),
			New[int64](n, WithFastPath(0), WithArena(4)),
			NewHP[int64](n, 8, 2, WithFastPath(0)),
		}
		var ref model.Queue
		next := int64(0)
		vs := make([]int64, 0, 8)
		dst := make([]int64, 8)
		for i, b := range data {
			tid := int(b>>6) % n
			k := 1 + int(b>>2)&7 // width in [1, 8]
			switch b & 3 {
			case 0: // batch enqueue of k fresh values
				vs = vs[:0]
				for j := 0; j < k; j++ {
					vs = append(vs, next)
					ref.Enqueue(next)
					next++
				}
				for _, q := range qs {
					q.EnqueueBatch(tid, vs)
				}
			case 1: // batch dequeue of up to k
				want := dst[:0]
				for j := 0; j < k; j++ {
					rv, rok := ref.Dequeue()
					if !rok {
						break
					}
					want = append(want, rv)
				}
				got := make([]int64, k)
				for qi, q := range qs {
					m := q.DequeueBatch(tid, got)
					if m != len(want) {
						t.Fatalf("queue %d (%s) step %d: DequeueBatch = %d, want %d",
							qi, q.Name(), i, m, len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("queue %d (%s) step %d: got[%d] = %d, want %d",
								qi, q.Name(), i, j, got[j], want[j])
						}
					}
				}
			case 2: // single enqueue
				ref.Enqueue(next)
				for _, q := range qs {
					q.Enqueue(tid, next)
				}
				next++
			default: // single dequeue
				rv, rok := ref.Dequeue()
				for qi, q := range qs {
					v, ok := q.Dequeue(tid)
					if ok != rok || (ok && v != rv) {
						t.Fatalf("queue %d (%s) step %d: got (%d,%v), want (%d,%v)",
							qi, q.Name(), i, v, ok, rv, rok)
					}
				}
			}
		}
		want := ref.Len()
		for qi, q := range qs {
			if q.Len() != want {
				t.Fatalf("queue %d (%s): len %d, want %d", qi, q.Name(), q.Len(), want)
			}
		}
	})
}
