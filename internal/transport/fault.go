package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Fault describes injected network misbehaviour for one side of a
// connection. Every message written through a FaultedConn pays the
// profile's delays, so an RPC round-trip pays one traversal per wrapped
// side. The zero Fault injects nothing.
type Fault struct {
	// Latency is a fixed delay added to every message sent.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) delay on top, drawn from the
	// seed-keyed RNG — deterministic given the seed and message order.
	Jitter time.Duration
	// Loss is the per-message probability in [0, 1] that a packet of the
	// message is "lost". The transport is a reliable stream, so loss
	// manifests the way TCP surfaces it: a retransmission timeout added
	// to the message's delay (lossRTO, doubling on consecutive losses of
	// the same message), not corruption of the stream.
	Loss float64
	// Bandwidth caps the sender at this many bytes per second (0 =
	// unlimited): each message is additionally delayed by size/Bandwidth.
	Bandwidth int64
}

// lossRTO is the modeled TCP retransmission timeout one lost packet
// costs; consecutive losses of the same message double it, like a real
// retransmit backoff.
const lossRTO = 50 * time.Millisecond

// maxLossRetransmits bounds the consecutive-loss loop so Loss=1 (a
// blackholed link) produces a large finite delay — calls then fail at
// their deadline, which is the behaviour under test — instead of an
// unbounded stall.
const maxLossRetransmits = 6

// IsZero reports whether the profile injects nothing.
func (f Fault) IsZero() bool {
	return f.Latency == 0 && f.Jitter == 0 && f.Loss == 0 && f.Bandwidth == 0
}

// Validate rejects profiles outside their domains.
func (f Fault) Validate() error {
	if f.Latency < 0 || f.Jitter < 0 || f.Bandwidth < 0 {
		return fmt.Errorf("transport: negative fault parameter: %+v", f)
	}
	if f.Loss < 0 || f.Loss > 1 {
		return fmt.Errorf("transport: loss %v outside [0, 1]", f.Loss)
	}
	return nil
}

func (f Fault) String() string {
	if f.IsZero() {
		return "none"
	}
	var parts []string
	if f.Latency > 0 {
		parts = append(parts, "latency="+f.Latency.String())
	}
	if f.Jitter > 0 {
		parts = append(parts, "jitter="+f.Jitter.String())
	}
	if f.Loss > 0 {
		parts = append(parts, "loss="+strconv.FormatFloat(f.Loss, 'g', -1, 64))
	}
	if f.Bandwidth > 0 {
		parts = append(parts, "bw="+strconv.FormatInt(f.Bandwidth, 10))
	}
	return strings.Join(parts, ",")
}

// ParseFault parses a comma-separated fault profile:
//
//	latency=2ms,jitter=1ms,loss=0.1,bw=64MiB
//
// latency/jitter take Go durations, loss a probability in [0, 1], bw a
// bytes-per-second rate with an optional KiB/MiB/GiB suffix. The empty
// string is the zero profile.
func ParseFault(s string) (Fault, error) {
	var f Fault
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Fault{}, fmt.Errorf("transport: bad fault field %q (want key=value)", field)
		}
		if err := f.set(key, val); err != nil {
			return Fault{}, err
		}
	}
	return f, f.Validate()
}

// set applies one key=value fault field; unknown keys are errors so a
// typo cannot silently run a clean network.
func (f *Fault) set(key, val string) error {
	switch key {
	case "latency", "jitter":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("transport: bad fault %s %q: %w", key, val, err)
		}
		if key == "latency" {
			f.Latency = d
		} else {
			f.Jitter = d
		}
	case "loss":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("transport: bad fault loss %q: %w", val, err)
		}
		f.Loss = p
	case "bw", "bandwidth":
		n, err := parseByteRate(val)
		if err != nil {
			return err
		}
		f.Bandwidth = n
	default:
		return fmt.Errorf("transport: unknown fault key %q (known: latency, jitter, loss, bw)", key)
	}
	return nil
}

func parseByteRate(val string) (int64, error) {
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}} {
		if strings.HasSuffix(val, suf.s) {
			val, mult = strings.TrimSuffix(val, suf.s), suf.m
			break
		}
	}
	n, err := strconv.ParseFloat(val, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("transport: bad fault bandwidth %q", val)
	}
	return int64(n * float64(mult)), nil
}

// faultRNG is a splitmix64 stream: deterministic given its seed, so a
// fault profile keyed by (cell seed, connection index) injects the same
// delay sequence every run.
type faultRNG struct{ s uint64 }

func (r *faultRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform sample in [0, 1).
func (r *faultRNG) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// A faultedConn delays every Write by the profile's injected latency,
// jitter, modeled retransmissions, and bandwidth debt. Reads pass
// through untouched — wrap the other side too for delays in both
// directions. Close is idempotent and interrupts no sleep: a message
// already "on the wire" completes its delay, exactly like a real link.
type faultedConn struct {
	net.Conn
	f   Fault
	mu  sync.Mutex
	rng faultRNG
}

// FaultedConn wraps conn so every message written through it pays the
// fault profile's delays, keyed by a deterministic seed. It can wrap
// either side of a connection: a client's dialed conn (requests pay),
// a server's accepted conn (replies pay), or both. A zero profile
// returns conn unwrapped.
func FaultedConn(conn net.Conn, f Fault, seed uint64) net.Conn {
	if f.IsZero() {
		return conn
	}
	return &faultedConn{Conn: conn, f: f, rng: faultRNG{s: seed}}
}

func (c *faultedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	delay := c.f.Latency
	if c.f.Jitter > 0 {
		delay += time.Duration(c.rng.next() % uint64(c.f.Jitter))
	}
	if c.f.Loss > 0 {
		rto := lossRTO
		for i := 0; i < maxLossRetransmits && c.rng.float64() < c.f.Loss; i++ {
			delay += rto
			rto *= 2
		}
	}
	if c.f.Bandwidth > 0 {
		delay += time.Duration(int64(len(p)) * int64(time.Second) / c.f.Bandwidth)
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.Conn.Write(p)
}

// A Redialer is a Caller that (re)connects on demand: the first call
// dials, a poisoned connection (server crash, network cut) is dropped
// and the next call dials again, and each call retries transport-level
// failures with bounded exponential backoff. Retrying means at-least-once
// delivery — use it for idempotent calls (storage RPCs in this model are
// accounting events; control-plane walks tolerate replays by contract).
// Server-reported errors (*RemoteError) are returned without retry: the
// request arrived, the server answered, retrying cannot help.
type Redialer struct {
	Network, Addr string

	// Dial overrides the connection factory (default net.Dial with
	// Network/Addr) — how tests and fault injectors interpose.
	Dial func() (net.Conn, error)

	// Attempts is the total tries per call (default 3). 1 disables
	// retry but keeps reconnect-on-dial.
	Attempts int
	// Backoff is the initial inter-attempt sleep (default 25ms),
	// doubling per attempt.
	Backoff time.Duration

	// Lifetime counters (atomic): dials made and per-call retry attempts
	// beyond the first. Read them with Stats; the remote matrix backend
	// folds them into the cell's transport_redials/retries metrics.
	dials   atomic.Int64
	retries atomic.Int64

	mu     sync.Mutex
	cur    *Client
	closed bool
}

// RedialerStats is a snapshot of a Redialer's lifetime transport
// resilience counters.
type RedialerStats struct {
	// Dials counts connections established, including the first; values
	// above 1 mean the connection was poisoned and re-established.
	Dials int64
	// Retries counts call attempts beyond each call's first — every unit
	// is one transport-level failure the redialer absorbed.
	Retries int64
}

// Stats snapshots the redialer's dial/retry counters.
func (r *Redialer) Stats() RedialerStats {
	return RedialerStats{Dials: r.dials.Load(), Retries: r.retries.Load()}
}

// client returns a healthy client, dialing if the previous connection
// was poisoned or never existed.
func (r *Redialer) client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.cur != nil && r.cur.Err() == nil {
		return r.cur, nil
	}
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	dial := r.Dial
	if dial == nil {
		dial = func() (net.Conn, error) { return net.Dial(r.Network, r.Addr) }
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	r.dials.Add(1)
	r.cur = NewClient(conn)
	return r.cur, nil
}

// CallCtx is CallWithin with no bound beyond ctx.
func (r *Redialer) CallCtx(ctx context.Context, req Request) (Reply, error) {
	return r.CallWithin(ctx, req, 0)
}

// CallWithin issues the request, redialing and retrying transport-level
// failures until ctx ends, the attempt budget is spent or, when d is
// positive, d has passed: the attempts and the backoff between them
// share the one bound. The last error is returned with its identity
// intact.
func (r *Redialer) CallWithin(ctx context.Context, req Request, d time.Duration) (Reply, error) {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := r.Backoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	var rep Reply
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			r.retries.Add(1)
			wait, expires := backoff, false
			if !deadline.IsZero() {
				if left := time.Until(deadline); left <= wait {
					wait, expires = left, true
				}
			}
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			case <-time.After(wait):
			}
			if expires {
				return rep, context.DeadlineExceeded
			}
			backoff *= 2
		}
		var c *Client
		if c, err = r.client(); err == nil {
			if rep, err = c.callUntil(ctx, req, deadline); err == nil {
				return rep, nil
			}
			var remote *RemoteError
			if errors.As(err, &remote) {
				return rep, err // the server answered; retrying cannot help
			}
			var rejected *RejectedError
			if errors.As(err, &rejected) {
				// Admission control declined the request — a definitive
				// answer from a healthy server. Retrying is exactly the
				// load it is shedding.
				return rep, err
			}
		}
		if ctx.Err() != nil || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			return rep, err
		}
	}
	return rep, err
}

// Call is CallWithin capped at DefaultCallTimeout.
func (r *Redialer) Call(req Request) (Reply, error) {
	return r.CallWithin(context.Background(), req, DefaultCallTimeout)
}

// Close poisons the redialer: the current connection is torn down and
// future calls fail with ErrClosed.
func (r *Redialer) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.cur != nil {
		err := r.cur.Close()
		r.cur = nil
		return err
	}
	return nil
}
