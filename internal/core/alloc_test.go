package core

import "testing"

// TestSlowPathAllocs is the allocation gate of the in-place operation
// records: a slow-path operation publishes by versioning its thread's
// preallocated record, so an Enqueue+Dequeue pair allocates only the
// enqueued node, and an EnqueueBatch of k values only its k chain nodes.
// The paper's immutable descriptors cost five more allocations per pair.
// VariantFast runs with slowPending held non-zero, which diverts every
// operation to the slow path.
func TestSlowPathAllocs(t *testing.T) {
	const k = 8
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"base", nil},
		{"opt1", []Option{WithVariant(VariantOpt1)}},
		{"opt2", []Option{WithVariant(VariantOpt2)}},
		{"opt12", []Option{WithVariant(VariantOpt12)}},
		{"fast-gated", []Option{WithFastPath(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int64](2, tc.opts...)
			if q.patience > 0 {
				q.slowPending.Add(1)
				defer q.slowPending.Add(-1)
			}
			for i := int64(0); i < 64; i++ {
				q.Enqueue(0, i)
				q.Dequeue(0)
			}
			if got := testing.AllocsPerRun(1000, func() {
				q.Enqueue(0, 7)
				q.Dequeue(0)
			}); got != 1 {
				t.Errorf("Enqueue+Dequeue pair: %v allocs, want 1 (the node)", got)
			}
			vs := make([]int64, k)
			dst := make([]int64, k)
			if got := testing.AllocsPerRun(200, func() {
				q.EnqueueBatch(0, vs)
				if n := q.DequeueBatch(0, dst); n != k {
					t.Fatalf("DequeueBatch got %d of %d", n, k)
				}
			}); got != k {
				t.Errorf("EnqueueBatch of %d: %v allocs, want %d (the chain nodes)", k, got, k)
			}
		})
	}
}
