package main

import (
	"strings"
	"testing"
)

// deliver runs 2 producers × n messages through the checker. tamper may
// drop, duplicate or reorder messages; two consumers then take the
// first and second half of what it returns, as closed-loop pairs do.
func deliver(t *testing.T, n int64, tamper func(stream []uint64) (first, second []uint64)) error {
	t.Helper()
	prod := make([]sent, 2)
	var stream []uint64
	for seq := int64(0); seq < n; seq++ {
		for pid := range prod {
			prod[pid].add(pid, seq)
			stream = append(stream, id(pid, seq))
		}
	}
	first, second := tamper(stream)
	cons := []*tally{newTally(), newTally()}
	for i, part := range [][]uint64{first, second} {
		for _, v := range part {
			buf := make([]byte, hdrLen+8)
			putPayload(buf, v, 1)
			cons[i].seePayload(buf, func(int, int64) int { return hdrLen + 8 })
		}
	}
	return verify(prod, cons, 0)
}

func halves(s []uint64) ([]uint64, []uint64) { return s[:len(s)/2], s[len(s)/2:] }

func TestCheckPassesCleanRun(t *testing.T) {
	if err := deliver(t, 1000, halves); err != nil {
		t.Fatalf("clean run failed the check: %v", err)
	}
}

func TestCheckFailsOnDroppedMessage(t *testing.T) {
	err := deliver(t, 1000, func(s []uint64) ([]uint64, []uint64) { return halves(append(s[:700:700], s[701:]...)) })
	if err == nil || !strings.Contains(err.Error(), "lost or duplicated") {
		t.Fatalf("dropped message not detected: %v", err)
	}
}

func TestCheckFailsOnDuplicateAcrossConsumers(t *testing.T) {
	// The second consumer also receives producer 0's seq 5, in order
	// for it, and producer 0's seq 900 is lost: the counts match and
	// every consumer saw increasing sequences, so only the multiset
	// hash can tell.
	err := deliver(t, 1000, func(s []uint64) ([]uint64, []uint64) {
		a, b := halves(s)
		var b2 []uint64
		b2 = append(b2, id(0, 5))
		for _, v := range b {
			if v != id(0, 900) {
				b2 = append(b2, v)
			}
		}
		return a, b2
	})
	if err == nil {
		t.Fatal("duplicate plus loss with equal counts not detected")
	}
}

func TestCheckFailsOnFIFOInversion(t *testing.T) {
	err := deliver(t, 1000, func(s []uint64) ([]uint64, []uint64) {
		s[100], s[102] = s[102], s[100] // same producer, seq 50 and 51
		return halves(s)
	})
	if err == nil || !strings.Contains(err.Error(), "FIFO inversion") {
		t.Fatalf("FIFO inversion not detected: %v", err)
	}
}

func TestCheckFailsOnCorruptPayload(t *testing.T) {
	cons := newTally()
	buf := make([]byte, hdrLen+4)
	putPayload(buf, id(0, 0), 1)
	buf[hdrLen+2] ^= 0xff
	cons.seePayload(buf, nil)
	if err := verify([]sent{{}}, []*tally{cons}, 0); err == nil {
		t.Fatal("corrupted payload not detected")
	}
}

func TestCheckExpiredCountsOnly(t *testing.T) {
	var prod sent
	cons := newTally()
	for seq := int64(0); seq < 10; seq++ {
		prod.add(0, seq)
		if seq != 3 { // seq 3 expired in the server
			cons.see(id(0, seq))
		}
	}
	if err := verify([]sent{prod}, []*tally{cons}, 1); err != nil {
		t.Fatalf("expired message miscounted: %v", err)
	}
	if err := verify([]sent{prod}, []*tally{cons}, 0); err == nil {
		t.Fatal("missing message with no expiry not detected")
	}
}

func TestKPValueRoundTrip(t *testing.T) {
	for _, c := range []struct {
		pid   int
		seq   int64
		stamp int64
		st    bool
	}{{0, 0, 0, false}, {1, kpSeqMax, 1<<40 + 12345, true}, {3, 12345, 99, true}} {
		pid, seq, stamp, st := kpUnpack(kpPack(c.pid, c.seq, c.stamp, c.st))
		if pid != c.pid || seq != c.seq || stamp != uint32(c.stamp) || st != c.st {
			t.Errorf("kpPack(%v) round trip = %d %d %d %v", c, pid, seq, stamp, st)
		}
	}
}

func TestPercentiles(t *testing.T) {
	s := newSampler(8)
	for i := int64(1); i <= 100; i++ {
		s.add(i)
	}
	d := merge(s)
	if d.n() > 8 || d.n() < 4 {
		t.Fatalf("sampler kept %d values, want 4..8", d.n())
	}
	f := newSampler(8)
	for _, v := range []int64{5, 1, 4, 2, 3} {
		f.add(v)
	}
	e := merge(f)
	if e.q(0.5) != 3 || e.q(0.99) != 5 || e.q(0) != 1 {
		t.Fatalf("quantiles of 1..5: p50=%v p99=%v p0=%v", e.q(0.5), e.q(0.99), e.q(0))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "msg", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
	}
	st := selfTimes(spans)
	if st["msg"].SelfNs != 50 || st["a"].SelfNs != 30 {
		t.Fatalf("self times = %+v", st)
	}
}

func TestCollectKeepsSpanParents(t *testing.T) {
	ws := []*worker{newWorker(true, 1), newWorker(true, 1)}
	for i, w := range ws {
		r := w.spans.root("pair", int64(i), 0, 100)
		w.spans.child(r, "enq", 0, 50)
		w.spans.child(r, "deq", 50, 100)
	}
	var p pass
	p.collect(ws, &window{n: 1, edges: []int64{0, 1e9}, steal: []int64{0, 0}})
	if st := selfTimes(p.spans)["pair"]; st.Count != 2 || st.SelfNs != 0 {
		t.Fatalf("pair spans after collect: %+v", st)
	}
}
