package lincheck

import (
	"testing"
	"testing/quick"

	"wfq/internal/model"
)

// bruteCheck decides linearizability by enumerating every permutation of
// the history that respects real-time order and replaying it against the
// model — exponential, usable only for tiny histories, and obviously
// correct. It is the oracle the production checker is fuzzed against.
func bruteCheck(hist []Op, initial []int64) Result {
	n := len(hist)
	used := make([]bool, n)
	var rec func(spec *model.Queue, done int) bool
	rec = func(spec *model.Queue, done int) bool {
		if done == n {
			return true
		}
		// minRes among pending ops bounds which ops may go next.
		minRes := int64(1<<63 - 1)
		for i, op := range hist {
			if !used[i] && op.Res < minRes {
				minRes = op.Res
			}
		}
		for i, op := range hist {
			if used[i] || op.Inv > minRes {
				continue
			}
			var next *model.Queue
			switch {
			case op.Kind == Enq:
				next = spec.Clone()
				next.Enqueue(op.Arg)
			case op.OK:
				if v, ok := spec.Peek(); ok && v == op.Ret {
					next = spec.Clone()
					next.Dequeue()
				}
			default:
				if spec.Empty() {
					next = spec
				}
			}
			if next == nil {
				continue
			}
			used[i] = true
			if rec(next, done+1) {
				used[i] = false
				return true
			}
			used[i] = false
		}
		return false
	}
	spec := &model.Queue{}
	for _, v := range initial {
		spec.Enqueue(v)
	}
	if rec(spec, 0) {
		return Linearizable
	}
	return NotLinearizable
}

// genHistory decodes fuzz bytes into a small well-formed history: random
// op kinds, arguments, results, and interval endpoints.
func genHistory(data []byte) []Op {
	const maxOps = 6
	var hist []Op
	clock := int64(1)
	// First pass: create ops with invocation times.
	for i := 0; i+3 < len(data) && len(hist) < maxOps; i += 4 {
		op := Op{ID: len(hist), TID: int(data[i]) % 3}
		switch data[i+1] % 3 {
		case 0:
			op.Kind = Enq
			op.Arg = int64(data[i+2] % 4)
			op.OK = true
		case 1:
			op.Kind = Deq
			op.OK = true
			op.Ret = int64(data[i+2] % 4)
		default:
			op.Kind = Deq
			op.OK = false
		}
		op.Inv = clock
		clock++
		// Response offset: small, so intervals overlap sometimes.
		op.Res = op.Inv + 1 + int64(data[i+3]%8)
		hist = append(hist, op)
	}
	// Make timestamps unique-ish by spreading responses.
	seen := map[int64]bool{}
	for i := range hist {
		for seen[hist[i].Res] || hist[i].Res <= hist[i].Inv {
			hist[i].Res++
		}
		seen[hist[i].Res] = true
	}
	return hist
}

func FuzzCheckerVsBruteForce(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1, 1, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 0})
	f.Add([]byte{2, 1, 3, 7, 0, 0, 2, 1, 1, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		hist := genHistory(data)
		if len(hist) == 0 {
			return
		}
		initial := []int64{}
		if len(data) > 0 && data[0]%2 == 0 {
			initial = []int64{1}
		}
		var c Checker
		got, err := c.CheckFrom(hist, initial)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCheck(hist, initial)
		if got != want {
			t.Fatalf("checker=%v brute=%v for history %v (initial %v)", got, want, hist, initial)
		}
	})
}

// TestCheckerVsBruteForceQuick runs the same differential via
// testing/quick so it exercises in ordinary `go test` runs at volume.
func TestCheckerVsBruteForceQuick(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		hist := genHistory(data)
		initial := []int64{}
		if len(data) > 2 && data[1]%3 == 0 {
			initial = []int64{int64(data[2] % 4)}
		}
		var c Checker
		got, err := c.CheckFrom(hist, initial)
		if err != nil {
			return false
		}
		return got == bruteCheck(hist, initial)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// genUniqueHistory decodes fuzz bytes into a small history whose
// enqueued values are all distinct, with each successful dequeue
// returning one of them — the histories on which the search's FIFO
// prune (which applies only to values that occur once) does its work.
// Intervals overlap as in genHistory; a value may be dequeued twice or
// never, so both verdicts occur.
func genUniqueHistory(data []byte) []Op {
	hist := genHistory(data)
	var vals []int64
	for i := range hist {
		if hist[i].Kind == Enq {
			hist[i].Arg = int64(100 + i)
			vals = append(vals, hist[i].Arg)
		}
	}
	for i := range hist {
		if hist[i].Kind == Deq && hist[i].OK && len(vals) > 0 {
			hist[i].Ret = vals[int(data[(4*i+2)%len(data)])%len(vals)]
		}
	}
	return hist
}

// TestFIFOPruneVsBruteForceQuick: on distinct-value histories the
// search — with its FIFO prune, with and without memoization — must
// agree with brute-force enumeration.
func TestFIFOPruneVsBruteForceQuick(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		hist := genUniqueHistory(data)
		if len(hist) == 0 {
			return true
		}
		want := bruteCheck(hist, nil)
		var c Checker
		if got, err := c.Check(hist); err != nil || got != want {
			t.Logf("checker=%v brute=%v for %v", got, want, hist)
			return false
		}
		ok, exhausted := newSearch(hist, nil, DefaultBudget, 0).dfs(&model.Queue{}, 0)
		if exhausted || ok != (want == Linearizable) {
			t.Logf("memo-less search ok=%v brute=%v for %v", ok, want, hist)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
