package main

import (
	"encoding/binary"
	"fmt"
)

// Every message carries its producer id and a per-producer sequence
// number. Producers count what was admitted; consumers check that each
// producer's sequence numbers arrive in increasing order (FIFO per
// producer, which any linearizable FIFO queue guarantees to each
// consumer) and fold them into a count and an additive multiset hash.
// After the final drain the folds must match what was admitted: any
// lost or duplicated message changes the count or the hash.

const (
	maxProducers = 4
	seqBits      = 48
	seqMask      = 1<<seqBits - 1
)

// id packs a producer id and a sequence number into the 8-byte message
// identity carried at the front of every payload.
func id(pid int, seq int64) uint64 { return uint64(pid)<<seqBits | uint64(seq) }

func splitID(v uint64) (pid int, seq int64) { return int(v >> seqBits), int64(v & seqMask) }

// mix is splitmix64's finalizer: a bijective scramble, so the sum of
// mix(id) over a multiset identifies it with overwhelming probability.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// sent is one producer's record of admitted messages.
type sent struct {
	n int64
	h uint64
}

func (s *sent) add(pid int, seq int64) {
	s.n++
	s.h += mix(id(pid, seq))
}

// tally is one consumer's record of received messages.
type tally struct {
	last [maxProducers]int64
	n    [maxProducers]int64
	h    [maxProducers]uint64
	bad  int64
	why  string
}

func newTally() *tally {
	t := &tally{}
	for i := range t.last {
		t.last[i] = -1
	}
	return t
}

func (t *tally) fail(format string, args ...any) {
	t.bad++
	if t.why == "" {
		t.why = fmt.Sprintf(format, args...)
	}
}

// see records one received message identity.
func (t *tally) see(v uint64) {
	pid, seq := splitID(v)
	if pid >= maxProducers {
		t.fail("message with unknown producer %d", pid)
		return
	}
	if seq <= t.last[pid] {
		t.fail("producer %d: seq %d received after seq %d (FIFO inversion or duplicate)", pid, seq, t.last[pid])
		return
	}
	t.last[pid] = seq
	t.n[pid]++
	t.h[pid] += mix(v)
}

// seePayload checks a payload's identity header and its fill bytes
// against the size and fill pattern the producer used.
func (t *tally) seePayload(p []byte, wantLen func(pid int, seq int64) int) {
	if len(p) < hdrLen {
		t.fail("payload of %d bytes is shorter than its header", len(p))
		return
	}
	v := payloadID(p)
	pid, seq := splitID(v)
	if pid < maxProducers && wantLen != nil {
		if n := wantLen(pid, seq); n != len(p) {
			t.fail("producer %d seq %d: payload of %d bytes, sent %d", pid, seq, len(p), n)
			return
		}
	}
	f := fill(v)
	for _, b := range p[hdrLen:] {
		if b != f {
			t.fail("producer %d seq %d: payload bytes corrupted", pid, seq)
			return
		}
	}
	t.see(v)
}

// hdrLen is the payload header: 8-byte identity, 8-byte stamp.
const hdrLen = 16

func fill(v uint64) byte { return byte(mix(v)) }

// putPayload writes identity, stamp and fill into p (len(p) >= hdrLen).
func putPayload(p []byte, v uint64, stamp int64) {
	binary.LittleEndian.PutUint64(p, v)
	binary.LittleEndian.PutUint64(p[8:], uint64(stamp))
	f := fill(v)
	for i := hdrLen; i < len(p); i++ {
		p[i] = f
	}
}

func payloadID(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

func payloadStamp(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p[8:])) }

// verify compares what producers admitted with what consumers received.
// expired is the number of admitted messages the server's timeout sweep
// completed instead of delivering; when it is nonzero only the counts
// can be compared, since which messages expired is not observable.
func verify(prod []sent, cons []*tally, expired int64) error {
	for _, c := range cons {
		if c.bad > 0 {
			return fmt.Errorf("%d bad deliveries; first: %s", c.bad, c.why)
		}
	}
	var wantN, gotN int64
	for pid := range prod {
		var got sent
		for _, c := range cons {
			got.n += c.n[pid]
			got.h += c.h[pid]
		}
		wantN += prod[pid].n
		gotN += got.n
		if expired == 0 && got != prod[pid] {
			return fmt.Errorf("producer %d: %d admitted, %d received, multiset hashes equal: %v: messages lost or duplicated",
				pid, prod[pid].n, got.n, got.h == prod[pid].h)
		}
	}
	if gotN+expired != wantN {
		return fmt.Errorf("%d admitted, %d received, %d expired: %d messages lost or duplicated",
			wantN, gotN, expired, wantN-gotN-expired)
	}
	return nil
}
