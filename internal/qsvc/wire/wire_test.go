package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// requestCases cover every verb, including boundary-length names and
// empty payloads; they also seed FuzzDecodeRequest.
var requestCases = []Request{
	{Verb: VCreate, Name: "orders", Backend: "ring", Shards: 4, SegSize: 1024, MaxThreads: 256, MaxDepth: 1 << 20, MaxInflight: 4096},
	{Verb: VCreate, Name: strings.Repeat("n", 255), Backend: ""},
	{Verb: VClose, Name: "orders"},
	{Verb: VDelete, Name: "orders"},
	{Verb: VStats, Name: "orders"},
	{Verb: VEnq, Name: "q", Flags: FlagWait, DeadlineNs: 123456789, Payload: []byte("hello")},
	{Verb: VEnq, Name: "q", Payload: nil},
	{Verb: VDeq, Name: "q", WaitNs: -1},
	{Verb: VDeq, Name: "q", WaitNs: 5e9},
}

var responseCases = []Response{
	{Status: StOK, Aux: 42, Payload: []byte("payload")},
	{Status: StEmpty},
	{Status: StErr, Payload: []byte("boom")},
}

// garbageRequests are truncated and malformed request frames.
var garbageRequests = [][]byte{
	nil,
	{},
	{VEnq},               // no name
	{VEnq, 5, 'a'},       // name length overruns
	{VEnq, 1, 'q'},       // missing flags/deadline
	{VDeq, 1, 'q', 0, 0}, // short wait
	{VCreate, 1, 'q', 0}, // short config
	{99, 1, 'q'},         // unknown verb
}

// TestRequestRoundtrip pins encode→decode identity for every verb.
func TestRequestRoundtrip(t *testing.T) {
	for _, in := range requestCases {
		b, err := in.EncodeRequest(nil)
		if err != nil {
			t.Fatalf("%+v: encode: %v", in, err)
		}
		out, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("%+v: decode: %v", in, err)
		}
		if out.Verb != in.Verb || out.Name != in.Name || out.Backend != in.Backend ||
			out.Shards != in.Shards || out.SegSize != in.SegSize ||
			out.MaxThreads != in.MaxThreads || out.MaxDepth != in.MaxDepth ||
			out.MaxInflight != in.MaxInflight || out.Flags != in.Flags ||
			out.DeadlineNs != in.DeadlineNs || out.WaitNs != in.WaitNs ||
			!bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", in, out)
		}
	}
}

// TestResponseRoundtrip covers the response header and payload.
func TestResponseRoundtrip(t *testing.T) {
	for _, in := range responseCases {
		out, err := DecodeResponse(in.EncodeResponse(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != in.Status || out.Aux != in.Aux || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("roundtrip mismatch: in %+v out %+v", in, out)
		}
	}
}

// TestDecodeRejectsGarbage: truncated and malformed frames error
// instead of panicking or misparsing.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range garbageRequests {
		if _, err := DecodeRequest(b); err == nil {
			t.Fatalf("DecodeRequest(%v) accepted garbage", b)
		}
	}
	if _, err := DecodeResponse([]byte{StOK}); err == nil {
		t.Fatal("DecodeResponse accepted short frame")
	}
}

// TestFrameRoundtrip exercises the length-prefix framing, including
// zero-length bodies and the size guard.
func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range bodies {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %q vs %q", got, want)
		}
	}
	// Oversized length prefix must be rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("ReadFrame accepted oversized length")
	}
}

// TestReadFrameDoesNotPreallocateDeclaredLength: a length prefix alone
// must not make the reader allocate the length it declares. A MaxFrame
// prefix followed by EOF is a truncated frame that costs under 1 MiB.
func TestReadFrameDoesNotPreallocateDeclaredLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a bare %d-byte prefix allocated %d bytes", MaxFrame, d)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameChunks: a body of up to one read chunk costs exactly one
// allocation more than an empty frame (whose only cost is the prefix
// buffer), and a body spanning several chunks, including one ending
// mid-chunk, arrives intact.
func TestReadFrameChunks(t *testing.T) {
	allocs := func(size int) float64 {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(buf.Bytes())
		return testing.AllocsPerRun(20, func() {
			rd.Reset(buf.Bytes())
			if _, err := ReadFrame(rd); err != nil {
				t.Fatal(err)
			}
		})
	}
	if empty, full := allocs(0), allocs(readChunk); full != empty+1 {
		t.Fatalf("%d-byte frame: %.1f allocs, empty frame %.1f: want one more", readChunk, full, empty)
	}
	want := make([]byte, 3*readChunk+5)
	for i := range want {
		want[i] = byte(i * 31)
	}
	var big bytes.Buffer
	if err := WriteFrame(&big, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&big)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("multi-chunk frame: %d bytes, err %v, equal %v", len(got), err, bytes.Equal(got, want))
	}
}

// FuzzDecodeRequest: decoding arbitrary bytes never panics, every
// accepted frame re-encodes, and decoding the re-encoding reproduces
// the first decode.
func FuzzDecodeRequest(f *testing.F) {
	for _, in := range requestCases {
		b, err := in.EncodeRequest(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range garbageRequests {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeRequest(b)
		if err != nil {
			return
		}
		enc, err := q.EncodeRequest(nil)
		if err != nil {
			t.Fatalf("accepted %x does not re-encode: %v", b, err)
		}
		back, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("re-encoding %x of %x does not decode: %v", enc, b, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("decode(encode(decode(%x))):\n got %+v\nwant %+v", b, back, q)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest's property for responses.
func FuzzDecodeResponse(f *testing.F) {
	for _, in := range responseCases {
		f.Add(in.EncodeResponse(nil))
	}
	f.Add([]byte{StOK})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeResponse(b)
		if err != nil {
			return
		}
		back, err := DecodeResponse(p.EncodeResponse(nil))
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v", b, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("decode(encode(decode(%x))):\n got %+v\nwant %+v", b, back, p)
		}
	})
}
