package core

import (
	"testing"

	"wfq/internal/model"
)

// decodeOps turns a fuzzer byte string into a queue program: each byte
// selects (tid, op); enqueue values are the running index, so every
// enqueued value is unique and mismatches are attributable.
func decodeOps(data []byte, nthreads int) []struct {
	tid int
	enq bool
} {
	ops := make([]struct {
		tid int
		enq bool
	}, len(data))
	for i, b := range data {
		ops[i].tid = int(b>>1) % nthreads
		ops[i].enq = b&1 == 0
	}
	return ops
}

// FuzzSequentialVsModel drives arbitrary single-goroutine op sequences
// (with arbitrary tid usage — legal as long as calls do not overlap)
// through every variant and the sequential specification in lockstep.
func FuzzSequentialVsModel(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{2, 4, 6, 1, 3, 5, 7})
	f.Add([]byte("queue-fuzz-seed"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const n = 4
		qs := []testQueue{
			New[int64](n),
			New[int64](n, WithVariant(VariantOpt12)),
			New[int64](n, WithVariant(VariantOpt1)),
			NewHP[int64](n, 8, 2),
		}
		var ref model.Queue
		for i, op := range decodeOps(data, n) {
			if op.enq {
				v := int64(i)
				ref.Enqueue(v)
				for _, q := range qs {
					q.Enqueue(op.tid, v)
				}
			} else {
				rv, rok := ref.Dequeue()
				for qi, q := range qs {
					v, ok := q.Dequeue(op.tid)
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

// FuzzInterleavedTwoThreads deterministically interleaves two scripted
// threads at OPERATION granularity (finer interleavings are the explore
// package's job) and checks FIFO against the model. The byte string
// encodes both programs and the interleaving order.
func FuzzInterleavedTwoThreads(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 0, 1, 0})
	f.Add([]byte{10, 20, 30}, []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, progBytes, orderBytes []byte) {
		if len(progBytes) > 128 || len(orderBytes) > 256 {
			return
		}
		q := New[int64](2)
		var ref model.Queue
		ops := decodeOps(progBytes, 2)
		cursor := 0
		step := func() {
			if cursor >= len(ops) {
				return
			}
			op := ops[cursor]
			if op.enq {
				v := int64(cursor)
				ref.Enqueue(v)
				q.Enqueue(op.tid, v)
			} else {
				rv, rok := ref.Dequeue()
				v, ok := q.Dequeue(op.tid)
				if ok != rok || (ok && v != rv) {
					t.Fatalf("step %d: got (%d,%v), want (%d,%v)", cursor, v, ok, rv, rok)
				}
			}
			cursor++
		}
		for range orderBytes {
			step()
		}
		for cursor < len(ops) {
			step()
		}
	})
}
