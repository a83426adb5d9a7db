// Package transport provides the wire protocol for the real-time cluster
// mode: a minimal asynchronous RPC layer carrying storage requests from
// client processes to object storage servers, over any net.Conn (TCP
// for multi-process runs, net.Pipe in tests).
//
// The wire is binary frames (frame.go has the layout): each direction
// opens with a magic+version preamble, so a peer on another version fails
// the connection at its first frame with both versions named, and then
// carries length-prefixed fixed-layout requests and replies, encoded into
// and decoded from per-connection reused buffers. Writes follow one rule
// (writer.go): a frame sent while nothing else is outstanding on its
// connection is written by its sender at once; any other is queued for a
// flusher goroutine that yields once, so concurrent senders share one
// system call. A connection holds at most eight frames accepted and not
// yet written; a sender beyond that waits for the wire, as every sender
// does when it writes for itself.
//
// The protocol is deliberately Lustre-shaped: a request carries the JobID
// the server classifies on, an opcode, a payload size, and a stream
// identifier; the reply carries only the sequence number and outcome —
// payload movement is represented by the server's service time, not by
// shipping gigabytes through the test harness.
//
// The serving side has two shapes. A Handler is handed each request with
// a reply func, which costs ServeConn one closure per request — right
// for control planes, tests and anything answered a few times a second.
// A handler that sits on a data path implements Server as well and is
// handed a Responder, the same reply path as a plain value (connection
// and sequence number) it can keep inside its own per-request state, so
// serving a request allocates nothing here. A Responder is single-use by
// contract, not by enforcement: nothing at this level is pooled, so a
// second Reply is simply a duplicate frame the client drops.
//
// Every call path is bounded. CallWithin takes a bound per call, carried
// by the call's pending slot: a client keeps one timer, armed at the
// earliest outstanding bound, which fails every overdue call when it
// fires — so a server that accepts a request but never replies fails the
// call at its bound instead of hanging the caller forever, and bounding a
// call costs neither a context nor a timer of its own. CallWithin and
// DoCtx also honor their context's deadline and cancellation, the bare
// Call caps itself at DefaultCallTimeout, and a server whose write side
// has died poisons its connection so the peer's pending calls fail fast.
// For multi-process deployments, Redialer adds reconnect-on-dial with
// bounded backoff retry, and Fault/FaultedConn inject deterministic
// network misbehaviour (latency, jitter, loss, bandwidth caps) on either
// side of a connection.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// A Request is one RPC from a client process to a storage server.
type Request struct {
	Seq    uint64 // client-assigned; echoed in the reply
	JobID  string // %e.%H job identifier, the classification key
	Op     uint8  // tbf.Opcode value
	Bytes  int64  // payload size the server should account and "transfer"
	Stream int    // file/stream identifier for the device model

	// Payload carries an opaque control-plane message for coordination
	// services that share this transport (e.g. the live GIFT coordinator's
	// per-epoch walk). Storage RPCs leave it nil — data movement stays
	// represented by service time, never by shipping bytes.
	Payload []byte
}

// A Reply reports the outcome of one Request.
type Reply struct {
	Seq   uint64
	Bytes int64  // bytes transferred
	Err   string // empty on success

	// Reject, when non-zero, marks an admission-control outcome: the
	// server refused (RejectRefused) or shed (RejectShed) the request
	// instead of serving it. It is NOT a failure — the server is healthy
	// and answered definitively — so CallWithin surfaces it as a typed
	// *RejectedError that retry loops must treat as terminal: retrying
	// would defeat the overload protection the rejection implements.
	Reject uint8

	// Payload is the control-plane response counterpart of
	// Request.Payload (nil on storage RPCs).
	Payload []byte

	// failure carries the client-side error that produced this reply
	// (connection death, deadline, context expiry) so a call can return
	// the typed sentinel — errors.Is(err, ErrClosed) and
	// errors.Is(err, context.DeadlineExceeded) both work — instead of a
	// stringified copy. Never on the wire: a genuine server-sent error
	// arrives with failure nil.
	failure error
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("transport: connection closed")

// DefaultCallTimeout caps the bare Call (no context) so a server that
// accepts a request and never replies cannot hang its caller forever.
// Callers needing a different bound should use CallWithin. A variable, not a
// constant, so tests can shrink it; production code must treat it as
// fixed.
var DefaultCallTimeout = 2 * time.Minute

// A RemoteError is an error string sent by the server in Reply.Err —
// the failure happened on the far side, not in the transport. Its
// message round-trips verbatim.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Reply.Reject values.
const (
	// RejectRefused: the admission layer refused the request on arrival
	// (token bucket empty, queue bound hit); it never entered the queue.
	RejectRefused uint8 = 1
	// RejectShed: the request was admitted with a queueing deadline and
	// shed at dispatch time after the deadline expired unserved.
	RejectShed uint8 = 2
)

// A RejectedError reports that the server's admission layer declined
// the request — a definitive, healthy answer, not a transport or server
// failure. It must never be retried: the server is telling the caller
// it is overloaded, and a retry is exactly the load it is shedding.
type RejectedError struct {
	// Shed is true when the request was admitted then shed past its
	// queueing deadline, false when it was refused on arrival.
	Shed bool
}

func (e *RejectedError) Error() string {
	if e.Shed {
		return "transport: request shed past its admission deadline"
	}
	return "transport: request rejected by admission control"
}

// A Caller issues request/reply RPCs. *Client (one connection) and
// *Redialer (reconnect-on-dial) both implement it; the cluster layer's
// job runners and GIFT agents accept either.
type Caller interface {
	// CallWithin sends a request and waits for its reply. ctx cancels the
	// call; d, when positive, bounds it, failing it with
	// context.DeadlineExceeded identity once d has passed. d <= 0 leaves
	// ctx alone to end it. An expired call is failed by the client's
	// timer, which takes the call's pending slot and delivers the failure
	// itself; a reply that lands later is dropped.
	CallWithin(ctx context.Context, req Request, d time.Duration) (Reply, error)
	// Close releases the underlying connection(s).
	Close() error
}

// pendingCall is one in-flight request's delivery slot. Exactly one
// goroutine delivers: whoever removes the entry from the pending map
// (recvLoop on reply, fail on connection death, the client's timer past
// the deadline, the waiter itself on context expiry). CallWithin takes
// its slot from callPool and waits on it inline; DoCtx, which hands the
// channel out, makes a slot of its own with a settled channel for its
// context watchdog.
type pendingCall struct {
	ch       chan Reply    // buffered 1: deliver never blocks
	settled  chan struct{} // closed on delivery; nil on pooled slots
	seq      uint64
	deadline time.Time // zero: no bound beyond the waiter's context
}

func (p *pendingCall) deliver(rep Reply) {
	p.ch <- rep
	if p.settled != nil {
		close(p.settled)
	}
}

// callPool recycles CallWithin's slots. A slot goes back only after its one
// delivery was received (or ruled out), so its channel is always empty.
var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan Reply, 1)} }}

// A Client issues asynchronous requests over one connection. It is safe
// for concurrent use: many goroutines may Do at once, one internal loop
// dispatches replies.
type Client struct {
	conn net.Conn
	w    *frameWriter

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	seq     uint64
	err     error
	closed  bool

	// timer fails overdue calls. It is made by the first bounded call and
	// armed at the earliest pending deadline, or later deadlines' calls
	// would wait on it; armed is the deadline it is set for (zero: idle).
	timer *time.Timer
	armed time.Time
}

// NewClient wraps an established connection. The caller owns nothing
// afterwards; Close tears the connection down.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]*pendingCall)}
	c.w = newFrameWriter(conn, func(err error) { c.fail(fmt.Errorf("transport: send: %w", err)) })
	go c.recvLoop()
	return c
}

// Dial connects to a storage server.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Err reports the client's terminal error: nil while the connection is
// healthy, ErrClosed after Close, the transport error that killed the
// connection otherwise. A non-nil Err means every future call fails —
// the signal Redialer uses to reconnect.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// take removes and returns seq's pending slot, or nil if it was already
// delivered (or never existed). The caller that gets a non-nil slot owns
// its delivery.
func (c *Client) take(seq uint64) *pendingCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pending[seq]
	delete(c.pending, seq)
	return p
}

// recvLoop dispatches replies to their waiting channels until the
// connection dies, then fails all outstanding calls. A reply whose seq
// has no pending slot — already failed, already timed out, or a
// duplicate reply for an earlier seq — is dropped.
func (c *Client) recvLoop() {
	c.fail(c.receive(newFrameReader(c.conn)))
}

// receive delivers replies until the connection fails, and says how.
func (c *Client) receive(r *frameReader) error {
	if err := r.preamble(); err != nil {
		// Nothing came back. Closed here, or before this side said
		// anything, that is a connection dying; a peer that was sent this
		// side's preamble and hung up on it is one that could not read it.
		if !errors.Is(err, ErrHandshake) && !closedHere(err) && c.w.opened() {
			err = errSilentPeer(err)
		}
		return err
	}
	for {
		f, err := r.next()
		if err != nil {
			return err
		}
		if f[0] != kindReply {
			continue // ignore stray traffic
		}
		rep, err := decodeReply(f)
		if err != nil {
			return err
		}
		if p := c.take(rep.Seq); p != nil {
			p.deliver(rep)
		}
	}
}

// fail poisons the client and unblocks every waiter with the typed
// terminal error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if c.closed {
			err = ErrClosed
		}
		c.err = err
	}
	err = c.err
	if c.timer != nil {
		c.timer.Stop()
	}
	var stale []*pendingCall
	for seq, p := range c.pending {
		delete(c.pending, seq)
		stale = append(stale, p)
	}
	c.mu.Unlock()
	for _, p := range stale {
		p.deliver(failure(p.seq, err))
	}
}

// arm makes sure the timer fires by deadline. Called with c.mu held.
func (c *Client) arm(deadline time.Time) {
	if !c.armed.IsZero() && !deadline.Before(c.armed) {
		return
	}
	c.armed = deadline
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(deadline), c.expire)
		return
	}
	c.timer.Reset(time.Until(deadline))
}

// expire runs when the timer fires: it takes every call past its
// deadline, re-arms at the earliest deadline still pending, and fails
// the overdue calls outside the lock. Deadlines are issue time plus a
// bound, so the pass finds few pending and fewer overdue.
func (c *Client) expire() {
	now := time.Now()
	var overdue []*pendingCall
	c.mu.Lock()
	c.armed = time.Time{}
	for seq, p := range c.pending {
		switch {
		case p.deadline.IsZero():
		case !p.deadline.After(now):
			delete(c.pending, seq)
			overdue = append(overdue, p)
		case c.armed.IsZero() || p.deadline.Before(c.armed):
			c.armed = p.deadline
		}
	}
	if !c.armed.IsZero() {
		c.timer.Reset(c.armed.Sub(now))
	}
	c.mu.Unlock()
	for _, p := range overdue {
		p.deliver(failure(p.seq, context.DeadlineExceeded))
	}
}

// issue registers p as the next seq's slot, due by deadline (zero: no
// bound), and sends the request. On a send error the slot is unregistered
// again — or, when fail() or the timer got to it first, its one delivery
// is consumed — so p is the caller's once more.
func (c *Client) issue(req *Request, p *pendingCall, deadline time.Time) (uint64, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.seq++
	seq := c.seq
	p.seq, p.deadline = seq, deadline
	if !deadline.IsZero() {
		c.arm(deadline)
	}
	c.pending[seq] = p
	alone := len(c.pending) == 1
	c.mu.Unlock()

	if err := c.w.send(alone, seq, req, nil); err != nil {
		// fail() may have delivered concurrently; only the goroutine that
		// takes the slot owns it, so a double delivery cannot happen.
		if c.take(seq) == nil {
			<-p.ch
		}
		return 0, fmt.Errorf("transport: send: %w", err)
	}
	return seq, nil
}

// Do sends a request and returns a channel that will receive exactly one
// Reply. The request's Seq is assigned by the client and returned for
// correlation. The reply channel is unbounded in time — use DoCtx to
// attach a deadline.
func (c *Client) Do(req Request) (<-chan Reply, uint64, error) {
	return c.DoCtx(context.Background(), req)
}

// DoCtx is Do with a context: if ctx expires before the reply arrives,
// the channel receives a Reply carrying ctx.Err() (typed — the eventual
// CallCtx error satisfies errors.Is(err, context.DeadlineExceeded) or
// context.Canceled) and any late genuine reply is dropped.
func (c *Client) DoCtx(ctx context.Context, req Request) (<-chan Reply, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	p := &pendingCall{ch: make(chan Reply, 1)}
	if ctx.Done() != nil {
		p.settled = make(chan struct{})
	}
	seq, err := c.issue(&req, p, time.Time{})
	if err != nil {
		return nil, 0, err
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-p.settled:
			case <-ctx.Done():
				if q := c.take(seq); q != nil {
					q.deliver(failure(seq, ctx.Err()))
				}
			}
		}()
	}
	return p.ch, seq, nil
}

// failure is the reply a call gets when err ends it on this side.
func failure(seq uint64, err error) Reply {
	return Reply{Seq: seq, Err: err.Error(), failure: err}
}

// replyError extracts the call error from a delivered reply: the typed
// client-side failure when one happened here, a *RejectedError when the
// server's admission layer declined the request, a *RemoteError when
// the server reported a failure, nil on success.
func replyError(rep Reply) error {
	if rep.failure != nil {
		return rep.failure
	}
	if rep.Reject != 0 {
		return &RejectedError{Shed: rep.Reject == RejectShed}
	}
	if rep.Err != "" {
		return &RemoteError{Msg: rep.Err}
	}
	return nil
}

// Call sends a request and waits for its reply, capped at
// DefaultCallTimeout — a stalled server fails the call instead of
// hanging it forever.
func (c *Client) Call(req Request) (Reply, error) {
	return c.CallWithin(context.Background(), req, DefaultCallTimeout)
}

// CallCtx is CallWithin with no bound beyond ctx.
func (c *Client) CallCtx(ctx context.Context, req Request) (Reply, error) {
	return c.CallWithin(ctx, req, 0)
}

// CallWithin sends a request and waits for its reply, until ctx ends or,
// when d is positive, d has passed — whichever comes first. Client-side
// failures keep their identity: errors.Is(err, ErrClosed) and
// errors.Is(err, context.DeadlineExceeded) both work; server-reported
// failures arrive as *RemoteError.
func (c *Client) CallWithin(ctx context.Context, req Request, d time.Duration) (Reply, error) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	return c.callUntil(ctx, req, deadline)
}

// callUntil is CallWithin with its bound as a deadline (zero: none).
func (c *Client) callUntil(ctx context.Context, req Request, deadline time.Time) (Reply, error) {
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	p := callPool.Get().(*pendingCall)
	defer callPool.Put(p)
	seq, err := c.issue(&req, p, deadline)
	if err != nil {
		return Reply{}, err
	}
	var rep Reply
	select {
	case rep = <-p.ch:
	case <-ctx.Done():
		if c.take(seq) != nil {
			rep = failure(seq, ctx.Err())
		} else {
			rep = <-p.ch // taken a moment ago: its delivery is on the way
		}
	}
	return rep, replyError(rep)
}

// Close tears down the connection; outstanding calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// A Handler serves requests. reply must be called exactly once per
// request, from any goroutine — the server serializes writes.
//
// ServeConn makes one closure per request to hand a Handler its reply
// path. A handler on a data path — one whose per-request cost matters —
// should implement Server as well, and takes its reply path by value.
type Handler interface {
	Handle(req Request, reply func(Reply))
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req Request, reply func(Reply))

// Handle calls f.
func (f HandlerFunc) Handle(req Request, reply func(Reply)) { f(req, reply) }

// A Server is a Handler that takes its reply path as a value. ServeConn
// asks once per connection whether its handler is one and, if so, calls
// Serve for every request; Handle stays for callers that hold a func —
// typically the one-line adapter Serve(req, ResponderFunc(reply)).
type Server interface {
	Handler
	Serve(req Request, r Responder)
}

// A Responder is one request's reply path: a served connection and the
// request's sequence number, or a wrapped func (ResponderFunc). It is a
// plain value — copy it, store it in the request's own bookkeeping, call
// it from any goroutine. It is single-use by contract, not by
// enforcement: a second Reply sends a second frame under the same
// sequence number, which the client drops as it drops any duplicate.
type Responder struct {
	conn *serverConn
	seq  uint64
	fn   func(Reply)
}

// ResponderFunc wraps a reply func as a Responder.
func ResponderFunc(fn func(Reply)) Responder { return Responder{fn: fn} }

// Reply sends the request's one reply.
func (r Responder) Reply(rep Reply) {
	if r.fn != nil {
		r.fn(rep)
		return
	}
	r.conn.reply(r.seq, &rep)
}

// ServeConn reads requests from conn and hands them to h until the
// connection closes. It returns the read error that ended the loop; a
// clean shutdown — the peer hung up between frames, or this side closed
// the connection — is reported as nil. A peer whose preamble is not this
// side's gets this side's preamble, so it can name both versions, and
// the connection closed; the error wraps ErrHandshake.
//
// A failed reply write poisons the connection: the conn is closed so
// this read loop exits and the peer's pending calls fail fast, instead
// of a half-dead connection silently accepting and "serving" requests
// whose replies all vanish.
func ServeConn(conn net.Conn, h Handler) error {
	s := &serverConn{w: newFrameWriter(conn, nil)}
	srv, _ := h.(Server)
	r := newFrameReader(conn)
	if err := r.preamble(); err != nil {
		if hungUp(err) {
			return nil // connected and left without a word
		}
		if errors.Is(err, ErrHandshake) {
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			conn.Write(appendPreamble(nil)) // best effort: the connection is dead either way
		}
		conn.Close()
		return err
	}
	for {
		f, err := r.next()
		if err != nil {
			if hungUp(err) {
				return nil
			}
			return err
		}
		if f[0] != kindRequest {
			continue
		}
		req, err := r.request(f)
		if err != nil {
			return err
		}
		seq := req.Seq
		s.unanswered.Add(1)
		if srv != nil {
			srv.Serve(req, Responder{conn: s, seq: seq})
		} else {
			h.Handle(req, func(rep Reply) { s.reply(seq, &rep) })
		}
	}
}

// closedHere reports whether a read ended because this side closed the
// connection.
func closedHere(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe)
}

// hungUp reports whether a read ended because either side closed the
// connection between frames.
func hungUp(err error) bool { return errors.Is(err, io.EOF) || closedHere(err) }

// serverConn is the reply side of one served connection.
type serverConn struct {
	w *frameWriter
	// unanswered counts requests handed to the handler and not yet
	// replied to. A handler that replies twice skews it low; the count
	// only picks between two correct ways to write, so that is harmless.
	unanswered atomic.Int64
}

func (s *serverConn) reply(seq uint64, rep *Reply) {
	alone := s.unanswered.Add(-1) <= 0
	if err := s.w.send(alone, seq, nil, rep); err != nil {
		// The write side is dead, or the reply cannot be framed: poison
		// the whole connection so the read loop exits instead of
		// serving on.
		s.w.conn.Close()
	}
}

// Serve accepts connections from l and serves each in its own goroutine
// until the listener closes.
func Serve(l net.Listener, h Handler) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			_ = ServeConn(conn, h)
		}()
	}
}

// Pipe returns a connected in-process client and the server side of the
// pipe, for tests and single-process demos.
func Pipe(h Handler) *Client {
	cs, ss := net.Pipe()
	go func() {
		defer ss.Close()
		_ = ServeConn(ss, h)
	}()
	return NewClient(cs)
}

// PipeFault is Pipe with fault injection on the server side of the
// in-process connection: every message the server sends pays the
// profile's delays, exactly like a remote node wrapping its accepted
// conns, so each RPC round-trip pays one traversal. seed keys the
// profile's deterministic RNG.
func PipeFault(h Handler, f Fault, seed uint64) *Client {
	cs, ss := net.Pipe()
	go func() {
		fc := FaultedConn(ss, f, seed)
		defer fc.Close()
		_ = ServeConn(fc, h)
	}()
	return NewClient(cs)
}
