package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The wire. Each direction of a connection opens with a six-byte
// preamble — wireMagic, then this side's wireVersion — and carries
// length-prefixed frames after it, big-endian, no padding:
//
//	u32 n       length of the rest of the frame, headerLen ≤ n ≤ maxFrame
//	u8  kind    kindRequest or kindReply
//	u64 seq
//	request:    u8 op · i64 bytes · i64 stream · u32 len, job · u32 len, payload
//	reply:      i64 bytes · u8 reject · u32 len, err · u32 len, payload
//
// The payload length is redundant with n on purpose: a frame whose parts
// do not add up to its length is rejected instead of being half-read.
const (
	wireVersion uint16 = 1

	kindRequest byte = 1
	kindReply   byte = 2

	lenSize      = 4
	headerLen    = 1 + 8                     // kind, seq
	requestFixed = headerLen + 1 + 8 + 8 + 4 // … op, bytes, stream, job length
	replyFixed   = headerLen + 8 + 1 + 4     // … bytes, reject, err length

	// maxFrame caps what a peer can make this side buffer for one frame.
	// Storage RPCs are tens of bytes; the large frames are control-plane
	// payloads (an observability drain is JSON for a whole cell).
	maxFrame = 1 << 30

	// readBufSize is a connection's initial read buffer: a flush of
	// sixteen storage frames fits four times over.
	readBufSize = 4 << 10

	// keepBuf is the largest buffer a connection holds on to for good.
	// A control-plane frame grows the buffers it passes through to its
	// size; releaseAfter smaller frames or writes in a row later they are
	// dropped, so the connection's footprint returns to what storage
	// frames need while a stream of large frames still reuses its buffers.
	keepBuf      = 64 << 10
	releaseAfter = 64

	// maxInterned bounds a connection's job-ID intern table, so a peer
	// inventing a job per request costs it its own allocation, not ours
	// a table that never shrinks.
	maxInterned = 1 << 12
)

// wireMagic opens every connection. Before frame v1 the wire was a gob
// stream; the magic's first byte is one a gob decoder rejects outright as
// a length prefix (a uint byte count above 8), so a peer built back then
// hangs up on it at once instead of waiting for the rest of a message
// that is not coming.
var wireMagic = [4]byte{0x8a, 'T', 'B', 'F'}

const preambleLen = len(wireMagic) + 2

// ErrHandshake marks a connection whose peer is not one of this build's:
// its opening bytes are another wire version's or no frame preamble at
// all, or it answered this side's preamble by hanging up without a word
// (what a gob peer, before frame v1, does). A connection that merely died
// before anything was said — closed on this side, or by a peer that was
// never sent a preamble — fails with its plain error. The error wrapping
// ErrHandshake names this side's version and what is known of the peer's.
var ErrHandshake = errors.New("transport: wire handshake failed")

var be = binary.BigEndian

func appendPreamble(b []byte) []byte {
	return be.AppendUint16(append(b, wireMagic[:]...), wireVersion)
}

// checkFrame rejects a frame whose variable parts would push it past
// maxFrame, before anything is encoded.
func checkFrame(fixed int, s string, payload []byte) error {
	if n := uint64(fixed) + uint64(len(s)) + 4 + uint64(len(payload)); n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	return nil
}

// appendTail appends the two length-prefixed variable parts and patches
// the frame's length prefix at start.
func appendTail(b []byte, start int, s string, payload []byte) []byte {
	b = append(be.AppendUint32(b, uint32(len(s))), s...)
	b = append(be.AppendUint32(b, uint32(len(payload))), payload...)
	be.PutUint32(b[start:], uint32(len(b)-start-lenSize))
	return b
}

func appendRequest(b []byte, seq uint64, req *Request) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, kindRequest)
	b = be.AppendUint64(b, seq)
	b = append(b, req.Op)
	b = be.AppendUint64(b, uint64(req.Bytes))
	b = be.AppendUint64(b, uint64(int64(req.Stream)))
	return appendTail(b, start, req.JobID, req.Payload)
}

func appendReply(b []byte, seq uint64, rep *Reply) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, kindReply)
	b = be.AppendUint64(b, seq)
	b = be.AppendUint64(b, uint64(rep.Bytes))
	b = append(b, rep.Reject)
	return appendTail(b, start, rep.Err, rep.Payload)
}

// A frameReader is one connection's receive side: a buffered reader and
// the reused buffer frames are decoded from in one. A returned frame
// aliases the buffer and is valid until the next call.
type frameReader struct {
	r        io.Reader
	buf      []byte // buf[off:end] has arrived and is not yet consumed
	off, end int
	small    int               // frames ≤ keepBuf taken in a row from a buffer larger than that
	jobs     map[string]string // interned job IDs
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, readBufSize), jobs: make(map[string]string)}
}

// fill blocks until n unconsumed bytes are buffered. The buffer grows
// only by doubling and only once it is full of bytes that arrived, so
// its size follows what the peer sent, never what a header claims.
func (r *frameReader) fill(n int) error {
	for r.end-r.off < n {
		if r.off > 0 && r.off+n > len(r.buf) {
			r.end = copy(r.buf, r.buf[r.off:r.end])
			r.off = 0
		}
		if r.end == len(r.buf) {
			r.buf = append(r.buf, make([]byte, len(r.buf))...)
		}
		m, err := r.r.Read(r.buf[r.end:])
		r.end += m
		if err != nil && r.end-r.off < n {
			if err == io.EOF && r.end > r.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// take consumes n buffered bytes. A buffer that a large frame grew is
// dropped, once empty, after releaseAfter frames in a row that had no use
// for its size (the frame returned still aliases the old one).
func (r *frameReader) take(n int) []byte {
	b := r.buf[r.off : r.off+n]
	if r.off += n; r.off == r.end {
		r.off, r.end = 0, 0
	}
	if n > keepBuf {
		r.small = 0
	} else if len(r.buf) > keepBuf {
		if r.small++; r.small >= releaseAfter && r.end == 0 {
			r.buf, r.small = make([]byte, readBufSize), 0
		}
	}
	return b
}

// preamble consumes the peer's preamble. Opening bytes that are not this
// version's fail with ErrHandshake; a connection that ends before any
// arrived fails with the read error alone — whether that was an answer
// to this side's preamble is the caller's to know (errSilentPeer).
func (r *frameReader) preamble() error {
	err := r.fill(preambleLen)
	got := r.buf[r.off:min(r.end, r.off+preambleLen)]
	if n := min(len(got), len(wireMagic)); !bytes.Equal(got[:n], wireMagic[:n]) {
		return fmt.Errorf("%w: this side speaks frame v%d, the peer something else (its first bytes % x are no frame preamble; a gob stream, the wire before frame v1?)",
			ErrHandshake, wireVersion, got)
	}
	if err != nil && len(got) > 0 {
		return fmt.Errorf("%w: this side speaks frame v%d, the peer's preamble was cut short after % x: %w",
			ErrHandshake, wireVersion, got, err)
	}
	if err != nil {
		return err
	}
	if v := be.Uint16(r.take(preambleLen)[len(wireMagic):]); v != wireVersion {
		return fmt.Errorf("%w: this side speaks frame v%d, the peer frame v%d", ErrHandshake, wireVersion, v)
	}
	return nil
}

// errSilentPeer is how a sender of this side's preamble reads a peer that
// closed the connection without sending a byte.
func errSilentPeer(err error) error {
	return fmt.Errorf("%w: this side speaks frame v%d, the peer closed the connection before its preamble (a peer on another wire closes on ours: gob, before frame v1, did): %w",
		ErrHandshake, wireVersion, err)
}

// next returns the next frame, without its length prefix: f[0] is
// kindRequest or kindReply. io.EOF means the peer closed between frames.
func (r *frameReader) next() ([]byte, error) {
	if err := r.fill(lenSize); err != nil {
		return nil, err
	}
	n := int64(be.Uint32(r.buf[r.off:]))
	if n < headerLen || n > maxFrame {
		return nil, fmt.Errorf("transport: frame length %d outside [%d, %d]", n, headerLen, maxFrame)
	}
	if err := r.fill(lenSize + int(n)); err != nil {
		return nil, err
	}
	f := r.take(lenSize + int(n))[lenSize:]
	if f[0] != kindRequest && f[0] != kindReply {
		return nil, fmt.Errorf("transport: unknown frame kind %d", f[0])
	}
	return f, nil
}

var errFrameParts = errors.New("transport: frame parts disagree with its length")

// tail splits the two length-prefixed variable parts that end a frame;
// b starts at the first part's length.
func tail(b []byte) (s, payload []byte, err error) {
	n := uint64(be.Uint32(b))
	b = b[4:]
	if n+4 > uint64(len(b)) {
		return nil, nil, errFrameParts
	}
	s, b = b[:n], b[n:]
	if uint64(be.Uint32(b)) != uint64(len(b)-4) {
		return nil, nil, errFrameParts
	}
	return s, b[4:], nil
}

// own copies a payload out of the read buffer; empty stays nil.
func own(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// request decodes a request frame. The job ID is interned per
// connection, so the storage path allocates nothing here.
func (r *frameReader) request(f []byte) (req Request, err error) {
	if len(f) < requestFixed+4 {
		return req, errFrameParts
	}
	job, payload, err := tail(f[requestFixed-4:])
	if err != nil {
		return req, err
	}
	id, ok := r.jobs[string(job)]
	if !ok {
		id = string(job)
		if len(r.jobs) < maxInterned {
			r.jobs[id] = id
		}
	}
	return Request{
		Seq:     be.Uint64(f[1:]),
		Op:      f[9],
		Bytes:   int64(be.Uint64(f[10:])),
		Stream:  int(int64(be.Uint64(f[18:]))),
		JobID:   id,
		Payload: own(payload),
	}, nil
}

// decodeReply decodes a reply frame.
func decodeReply(f []byte) (rep Reply, err error) {
	if len(f) < replyFixed+4 {
		return rep, errFrameParts
	}
	msg, payload, err := tail(f[replyFixed-4:])
	if err != nil {
		return rep, err
	}
	return Reply{
		Seq:     be.Uint64(f[1:]),
		Bytes:   int64(be.Uint64(f[9:])),
		Reject:  f[17],
		Err:     string(msg),
		Payload: own(payload),
	}, nil
}
