// Package wire is the length-prefixed binary protocol between wfqserve
// and its clients. A connection is synchronous request/response (the
// HTTP/1.1 shape: one outstanding request per connection; open more
// connections for more concurrency), which keeps both ends free of
// demultiplexing state and makes blocking verbs (a dequeue wait, an
// enqueue-and-wait) natural: the response simply arrives when the
// operation completes.
//
// Framing: every message is a 4-byte big-endian length followed by that
// many payload bytes. Requests begin with a verb byte and a
// length-prefixed queue name; responses begin with a status byte and a
// fixed 8-byte auxiliary word (the generation on create, zero
// elsewhere), then carry verb-specific payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxFrame bounds a single message (16 MiB) so a corrupt length prefix
// cannot make a reader allocate unboundedly.
const MaxFrame = 16 << 20

// readChunk is the most ReadFrame allocates ahead of the bytes that
// have actually arrived: a frame body is read in pieces of at most this
// size, so a length prefix alone cannot make the reader allocate the
// length it declares.
const readChunk = 64 << 10

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds max size")

// Request verbs.
const (
	VCreate byte = iota + 1 // name + config: register a queue
	VClose                  // name: close in place (drain continues)
	VDelete                 // name: unregister and tear down
	VEnq                    // name + flags + deadline + payload
	VDeq                    // name + wait: dequeue, optionally blocking
	VStats                  // name: JSON qsvc.Stats
)

// Enqueue flags.
const (
	// FlagWait defers the response until the request COMPLETES:
	// delivered to a consumer (StOK) or expired by the timeout sweep
	// (StDeadline). Requires a deadline so the wait is bounded.
	FlagWait byte = 1 << 0
)

// Response statuses.
const (
	StOK       byte = iota // success; payload per verb
	StEmpty                // dequeue: empty (or wait timed out)
	StNotFound             // no queue under that name
	StExists               // create: name already registered
	StRejected             // enqueue: admission cap (wfq.ErrAdmission)
	StDeadline             // enq-wait: request expired (wfq.ErrDeadlineExceeded)
	StClosed               // queue closed/deleted (wfq.ErrClosed)
	StErr                  // other failure; payload is the message
)

// Request is the decoded form of every request frame; unused fields are
// zero for verbs that do not carry them.
type Request struct {
	Verb byte
	Name string

	// VCreate configuration.
	Backend     string
	Shards      uint16
	SegSize     uint32
	MaxThreads  uint32
	MaxDepth    uint32
	MaxInflight uint32

	// VEnq.
	Flags      byte
	DeadlineNs int64
	Payload    []byte

	// VDeq: <0 block indefinitely, 0 non-blocking, >0 bounded wait.
	WaitNs int64
}

// Response is the decoded form of every response frame.
type Response struct {
	Status  byte
	Aux     uint64 // generation on create; zero elsewhere
	Payload []byte // dequeued bytes, stats JSON, or error message
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame. A body of up to readChunk
// bytes costs one allocation; a longer one grows in readChunk pieces as
// its bytes arrive, so a peer that declares a large frame and sends
// less holds at most twice what it sent plus one chunk. A clean EOF
// before the prefix returns io.EOF; a frame cut short returns
// io.ErrUnexpectedEOF; an oversized prefix returns ErrFrameTooLarge.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, n, MaxFrame)
	}
	body := make([]byte, 0, min(n, readChunk))
	for len(body) < n {
		m := min(n-len(body), readChunk)
		body = slices.Grow(body, m)
		if _, err := io.ReadFull(r, body[len(body):len(body)+m]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the prefix promised more
			}
			return nil, err
		}
		body = body[:len(body)+m]
	}
	return body, nil
}

// ErrTruncated reports a frame too short for its verb's fixed fields.
var ErrTruncated = errors.New("wire: truncated message")

// appendStr8 appends a string with a one-byte length prefix (255 max).
func appendStr8(b []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("wire: string %q exceeds 255 bytes", s[:16]+"…")
	}
	b = append(b, byte(len(s)))
	return append(b, s...), nil
}

// takeStr8 splits a one-byte-length-prefixed string off the front.
func takeStr8(b []byte) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, ErrTruncated
	}
	n := 1 + int(b[0])
	if len(b) < n {
		return "", nil, ErrTruncated
	}
	return string(b[1:n]), b[n:], nil
}

// EncodeRequest appends the request's frame body to dst.
func (q *Request) EncodeRequest(dst []byte) ([]byte, error) {
	dst = append(dst, q.Verb)
	dst, err := appendStr8(dst, q.Name)
	if err != nil {
		return nil, err
	}
	switch q.Verb {
	case VCreate:
		if dst, err = appendStr8(dst, q.Backend); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint16(dst, q.Shards)
		dst = binary.BigEndian.AppendUint32(dst, q.SegSize)
		dst = binary.BigEndian.AppendUint32(dst, q.MaxThreads)
		dst = binary.BigEndian.AppendUint32(dst, q.MaxDepth)
		dst = binary.BigEndian.AppendUint32(dst, q.MaxInflight)
	case VClose, VDelete, VStats:
		// name only
	case VEnq:
		dst = append(dst, q.Flags)
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.DeadlineNs))
		dst = append(dst, q.Payload...)
	case VDeq:
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.WaitNs))
	default:
		return nil, fmt.Errorf("wire: unknown verb %d", q.Verb)
	}
	return dst, nil
}

// DecodeRequest parses a request frame body.
func DecodeRequest(b []byte) (Request, error) {
	var q Request
	if len(b) < 1 {
		return q, ErrTruncated
	}
	q.Verb = b[0]
	var err error
	if q.Name, b, err = takeStr8(b[1:]); err != nil {
		return q, err
	}
	switch q.Verb {
	case VCreate:
		if q.Backend, b, err = takeStr8(b); err != nil {
			return q, err
		}
		if len(b) < 2+4+4+4+4 {
			return q, ErrTruncated
		}
		q.Shards = binary.BigEndian.Uint16(b)
		q.SegSize = binary.BigEndian.Uint32(b[2:])
		q.MaxThreads = binary.BigEndian.Uint32(b[6:])
		q.MaxDepth = binary.BigEndian.Uint32(b[10:])
		q.MaxInflight = binary.BigEndian.Uint32(b[14:])
	case VClose, VDelete, VStats:
		// name only
	case VEnq:
		if len(b) < 1+8 {
			return q, ErrTruncated
		}
		q.Flags = b[0]
		q.DeadlineNs = int64(binary.BigEndian.Uint64(b[1:]))
		q.Payload = b[9:]
	case VDeq:
		if len(b) < 8 {
			return q, ErrTruncated
		}
		q.WaitNs = int64(binary.BigEndian.Uint64(b))
	default:
		return q, fmt.Errorf("wire: unknown verb %d", q.Verb)
	}
	return q, nil
}

// EncodeResponse appends the response's frame body to dst.
func (p *Response) EncodeResponse(dst []byte) []byte {
	dst = append(dst, p.Status)
	dst = binary.BigEndian.AppendUint64(dst, p.Aux)
	return append(dst, p.Payload...)
}

// DecodeResponse parses a response frame body.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 1+8 {
		return Response{}, ErrTruncated
	}
	return Response{
		Status:  b[0],
		Aux:     binary.BigEndian.Uint64(b[1:]),
		Payload: b[9:],
	}, nil
}
