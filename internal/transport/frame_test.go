package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// chunkReader hands its data out at most n bytes per Read, the way a
// stream arrives: never more than has been "sent".
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	m := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[m:]
	return m, nil
}

// FuzzFrame: whatever bytes arrive, in whatever pieces, the decoder
// never panics, never buffers more than what arrived plus one doubling
// (so never a header's word for it, and nothing at all for a length over
// the cap), and every frame it does accept re-encodes to the bytes it
// was decoded from. The checked-in corpus (testdata/fuzz/FuzzFrame) has
// one malformed frame per rule.
func FuzzFrame(f *testing.F) {
	f.Add(appendRequest(nil, 7, &Request{JobID: "dd.n1", Op: 1, Bytes: 4096, Stream: 3}), uint8(255))
	f.Add(appendReply(nil, 7, &Reply{Bytes: 4096, Reject: RejectShed, Err: "quota", Payload: []byte("p")}), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		r := newFrameReader(&chunkReader{data: data, n: int(chunk) + 1})
		consumed := 0
		for {
			frame, err := r.next()
			if err != nil {
				break
			}
			var again []byte
			switch frame[0] {
			case kindRequest:
				req, err := r.request(frame)
				if err != nil {
					continue
				}
				again = appendRequest(nil, req.Seq, &req)
			case kindReply:
				rep, err := decodeReply(frame)
				if err != nil {
					continue
				}
				again = appendReply(nil, rep.Seq, &rep)
			}
			if !bytes.Equal(again[lenSize:], frame) {
				t.Fatalf("frame % x re-encodes as % x", frame, again[lenSize:])
			}
			consumed += len(again)
		}
		if consumed > len(data) {
			t.Fatalf("decoded %d bytes of frames from %d bytes of input", consumed, len(data))
		}
		if limit := max(readBufSize, 2*len(data)); len(r.buf) > limit {
			t.Fatalf("read buffer grew to %d bytes on %d bytes of input (limit %d)", len(r.buf), len(data), limit)
		}
	})
}

// TestFrameLengthNotTrusted: a header is a claim, not a reservation. A
// length over the cap is refused before a byte of it is read; one under
// the cap buys no memory until the bytes behind it arrive.
func TestFrameLengthNotTrusted(t *testing.T) {
	for _, c := range []struct {
		name   string
		length uint32
		want   string
	}{
		{"over the cap", maxFrame + 1, "outside"},
		{"all ones", 0xffffffff, "outside"},
		{"below the header", headerLen - 1, "outside"},
		{"half a gigabyte that never comes", 1 << 29, io.ErrUnexpectedEOF.Error()},
	} {
		data := append(be.AppendUint32(nil, c.length), kindRequest, 0, 0, 0)
		r := newFrameReader(bytes.NewReader(data))
		_, err := r.next()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if len(r.buf) != readBufSize {
			t.Errorf("%s: read buffer is %d bytes after a %d-byte input", c.name, len(r.buf), len(data))
		}
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestFrameRoundTrip: decode(encode(x)) == x for random requests and
// replies, and for the corners — a 1 MiB payload, an empty job ID,
// negative Bytes, Reject set with Err empty — through one reader, in
// small pieces, so frames straddle reads and the buffer grows and
// compacts on the way.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	reqs := []Request{
		{},
		{JobID: "", Op: 0xF8, Bytes: -1, Stream: -7},
		{JobID: "big.n08", Op: 1, Bytes: 64 << 10, Stream: 1 << 40, Payload: randomBytes(rng, 1<<20)},
	}
	reps := []Reply{
		{},
		{Bytes: -4096, Reject: RejectRefused},
		{Reject: RejectShed, Err: "", Payload: randomBytes(rng, 1<<20)},
		{Err: "quota exceeded"},
	}
	for i := 0; i < 200; i++ {
		reqs = append(reqs, Request{
			Seq:     rng.Uint64(),
			JobID:   string(randomBytes(rng, rng.Intn(40))),
			Op:      uint8(rng.Intn(256)),
			Bytes:   rng.Int63() - rng.Int63(),
			Stream:  int(rng.Int63() - rng.Int63()),
			Payload: randomBytes(rng, rng.Intn(3)*rng.Intn(9000)),
		})
		reps = append(reps, Reply{
			Seq:     rng.Uint64(),
			Bytes:   rng.Int63() - rng.Int63(),
			Reject:  uint8(rng.Intn(3)),
			Err:     string(randomBytes(rng, rng.Intn(2)*rng.Intn(60))),
			Payload: randomBytes(rng, rng.Intn(3)*rng.Intn(9000)),
		})
	}
	var wire []byte
	for i := range reqs {
		wire = appendRequest(wire, reqs[i].Seq, &reqs[i])
	}
	for i := range reps {
		wire = appendReply(wire, reps[i].Seq, &reps[i])
	}
	r := newFrameReader(&chunkReader{data: wire, n: 1500})
	for i, want := range reqs {
		f, err := r.next()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got, err := r.request(f)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.JobID != want.JobID || got.Op != want.Op || got.Bytes != want.Bytes ||
			got.Stream != want.Stream || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("request %d round-tripped as %+v, want %+v", i, got, want)
		}
	}
	for i, want := range reps {
		f, err := r.next()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got, err := decodeReply(f)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Bytes != want.Bytes || got.Reject != want.Reject || got.Err != want.Err ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("reply %d round-tripped as %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// callFails issues one bounded call that must fail with ErrHandshake
// well before its deadline, and returns the error.
func callFails(t *testing.T, c *Client) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.CallCtx(ctx, Request{Op: 0xF8})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("handshake failure took %v to surface", elapsed)
	}
	return err
}

// TestHandshakeOldServer: a server built before frames read this side's
// preamble as a malformed gob length and hung up. The fake does the
// same: the call fails at once, naming this side's version and what the
// peer did, instead of timing out.
func TestHandshakeOldServer(t *testing.T) {
	cs, ss := net.Pipe()
	go func() {
		ss.Read(make([]byte, 4096)) // gob's buffered read; the magic's first byte is all it needs to see
		ss.Close()
	}()
	c := NewClient(cs)
	defer c.Close()
	err := callFails(t, c)
	for _, want := range []string{"frame v1", "closed the connection before its preamble", "gob"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to mention %q", err, want)
		}
	}
}

// TestHandshakeOtherVersion: a frame peer of another version answers
// with its own preamble before closing, so the error names both.
func TestHandshakeOtherVersion(t *testing.T) {
	cs, ss := net.Pipe()
	go func() {
		ss.Read(make([]byte, 4096))
		ss.Write(be.AppendUint16(append([]byte(nil), wireMagic[:]...), wireVersion+1))
		ss.Close()
	}()
	c := NewClient(cs)
	defer c.Close()
	err := callFails(t, c)
	for _, want := range []string{"this side speaks frame v1", "the peer frame v2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to mention %q", err, want)
		}
	}
}

// TestHandshakeOldClient: the server's side of it. A client that opens
// with anything but this version's preamble — here the first bytes of a
// gob stream — is sent this side's preamble and disconnected; no request
// of its is ever decoded, let alone handled.
func TestHandshakeOldClient(t *testing.T) {
	for name, opening := range map[string][]byte{
		"gob":       {0x2f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 'e', 'n', 'v'},
		"frame v2":  be.AppendUint16(append([]byte(nil), wireMagic[:]...), wireVersion+1),
		"cut short": wireMagic[:3],
	} {
		cs, ss := net.Pipe()
		served := make(chan error, 1)
		go func() {
			served <- ServeConn(ss, HandlerFunc(func(Request, func(Reply)) { t.Errorf("%s: a request was handled", name) }))
		}()
		go func() {
			cs.Write(opening)
			if name == "cut short" {
				cs.Close()
			}
		}()
		if name != "cut short" {
			got, _ := io.ReadAll(cs) // until the server closes
			if !bytes.Equal(got, appendPreamble(nil)) {
				t.Errorf("%s: server answered % x, want its preamble % x", name, got, appendPreamble(nil))
			}
		}
		select {
		case err := <-served:
			if !errors.Is(err, ErrHandshake) {
				t.Errorf("%s: ServeConn returned %v, want ErrHandshake", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s: ServeConn still serving", name)
		}
		cs.Close()
	}
}

// TestDeathBeforePreambleIsNotHandshake: ErrHandshake is for a peer of
// another wire. A connection that dies before anything was said — closed
// on this side, or by a peer this side never sent its preamble to — is a
// connection dying, and a caller polling for a node to come up must be
// able to tell the two apart.
func TestDeathBeforePreambleIsNotHandshake(t *testing.T) {
	for name, kill := range map[string]func(cs, ss net.Conn){
		"closed here":                 func(cs, ss net.Conn) { cs.Close() },
		"peer left, nothing was sent": func(cs, ss net.Conn) { ss.Close() },
	} {
		cs, ss := net.Pipe()
		c := NewClient(cs)
		kill(cs, ss)
		deadline := time.Now().Add(2 * time.Second)
		for c.Err() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := c.Err(); err == nil || errors.Is(err, ErrHandshake) {
			t.Errorf("%s: client error = %v, want a plain connection error", name, err)
		}
		c.Close()
		ss.Close()
	}
}

// TestLargeFrameBuffersReleased: one control-plane frame far larger than
// a storage RPC grows the connection's buffers to its size. They are kept
// while large frames keep coming, and must not stay that size for the
// life of a connection that went back to storage frames.
func TestLargeFrameBuffersReleased(t *testing.T) {
	big := make([]byte, 4*keepBuf)
	cs, ss := net.Pipe()
	defer cs.Close()
	defer ss.Close()
	w, r := newFrameWriter(cs, nil), newFrameReader(ss)
	opened := false
	exchange := func(payload []byte, n int) {
		t.Helper()
		read := make(chan error)
		go func() {
			var err error
			if !opened {
				opened, err = true, r.preamble()
			}
			for i := 0; i < n && err == nil; i++ {
				_, err = r.next()
			}
			read <- err
		}()
		for i := 0; i < n; i++ {
			if err := w.send(true, uint64(i), &Request{JobID: "j", Payload: payload}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-read; err != nil {
			t.Fatal(err)
		}
	}
	exchange(big, 2)
	exchange(nil, releaseAfter-1)
	if len(r.buf) < len(big) || cap(w.direct) < len(big) {
		t.Fatalf("buffers dropped to %d and %d bytes while large frames were recent", len(r.buf), cap(w.direct))
	}
	exchange(nil, 1)
	if len(r.buf) > keepBuf {
		t.Errorf("read buffer still %d bytes, %d small frames after the last large one", len(r.buf), releaseAfter)
	}
	if cap(w.direct) > keepBuf {
		t.Errorf("write buffer still %d bytes, %d small frames after the last large one", cap(w.direct), releaseAfter)
	}
}
