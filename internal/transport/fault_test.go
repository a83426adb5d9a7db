package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// muteHandler accepts every request and never replies — the stalled
// server that used to hang callers forever.
var muteHandler = HandlerFunc(func(req Request, reply func(Reply)) {})

// TestMuteHandlerCallTimesOut: the bare Call must fail at
// DefaultCallTimeout against a server that accepts but never replies —
// the regression test for the unbounded-Call hang.
func TestMuteHandlerCallTimesOut(t *testing.T) {
	old := DefaultCallTimeout
	DefaultCallTimeout = 50 * time.Millisecond
	defer func() { DefaultCallTimeout = old }()

	c := Pipe(muteHandler)
	defer c.Close()
	start := time.Now()
	_, err := c.Call(Request{JobID: "j", Bytes: 1})
	if err == nil {
		t.Fatal("Call against a mute server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded identity", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Call took %v to fail; the default cap did not bite", elapsed)
	}
}

func TestCallCtxDeadline(t *testing.T) {
	c := Pipe(muteHandler)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.CallCtx(ctx, Request{JobID: "j"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The client survives a timed-out call: a healthy later call works.
	c2 := Pipe(echoHandler)
	defer c2.Close()
	if _, err := c2.Call(Request{JobID: "j", Bytes: 1}); err != nil {
		t.Fatalf("healthy call after deadline test: %v", err)
	}
}

func TestCallCtxCancel(t *testing.T) {
	c := Pipe(muteHandler)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.CallCtx(ctx, Request{JobID: "j"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestErrClosedIdentity: the sentinel must survive the failure path —
// errors.Is(err, ErrClosed) on calls in flight at Close and on calls
// issued after it.
func TestErrClosedIdentity(t *testing.T) {
	c := Pipe(muteHandler)
	errc := make(chan error, 1)
	go func() {
		_, err := c.CallCtx(context.Background(), Request{JobID: "j"})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the call get in flight
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight call err = %v, want ErrClosed identity", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call not failed by Close")
	}
	if _, _, err := c.Do(Request{JobID: "j"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close err = %v, want ErrClosed identity", err)
	}
	if _, err := c.CallCtx(context.Background(), Request{JobID: "j"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CallCtx after Close err = %v, want ErrClosed identity", err)
	}
}

func TestRemoteErrorType(t *testing.T) {
	c := Pipe(HandlerFunc(func(req Request, reply func(Reply)) {
		reply(Reply{Err: "quota exceeded"})
	}))
	defer c.Close()
	_, err := c.Call(Request{JobID: "j"})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "quota exceeded" {
		t.Fatalf("err = %#v, want *RemoteError{quota exceeded}", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("server error claims ErrClosed identity")
	}
}

// writeFailConn fails every Write — the half-dead connection whose
// write side died while reads still work.
type writeFailConn struct {
	net.Conn
	fails atomic.Int64
}

func (c *writeFailConn) Write(p []byte) (int, error) {
	c.fails.Add(1)
	return 0, errors.New("write side dead")
}

// TestPoisonOnWriteFailure: a server whose reply write fails must close
// the connection so its read loop exits and the peer's calls fail fast,
// instead of silently "serving" on.
func TestPoisonOnWriteFailure(t *testing.T) {
	cs, ss := net.Pipe()
	wf := &writeFailConn{Conn: ss}
	served := make(chan error, 1)
	go func() { served <- ServeConn(wf, echoHandler) }()

	c := NewClient(cs)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.CallCtx(ctx, Request{JobID: "j", Bytes: 1}); err == nil {
		t.Fatal("call succeeded over a connection whose write side is dead")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("call only failed at its deadline; the server did not poison the conn")
	}
	select {
	case <-served:
		// read loop exited — the connection was poisoned
	case <-time.After(2 * time.Second):
		t.Fatal("server read loop still running after write failure")
	}
	if wf.fails.Load() == 0 {
		t.Fatal("test exercised nothing: no write was attempted")
	}
}

// TestMidCallConnDrop: the far side drops the TCP connection while a
// call is in flight; the call must fail promptly with a transport
// error, not hang and not report success.
func TestMidCallConnDrop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Accept the request bytes, then drop the connection mid-call.
		buf := make([]byte, 1)
		conn.Read(buf)
		time.Sleep(10 * time.Millisecond)
		conn.Close()
	}()

	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.CallCtx(ctx, Request{JobID: "j", Bytes: 1}); err == nil {
		t.Fatal("call succeeded over a dropped connection")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("call only failed at its deadline; the drop was not detected")
	}
}

// TestServerCrashInFlight: many calls in flight when the server process
// "crashes" (its conns and listener close). Every call must complete —
// with an error — and none may hang.
func TestServerCrashInFlight(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns struct {
		sync.Mutex
		list []net.Conn
	}
	block := make(chan struct{})
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Lock()
			conns.list = append(conns.list, conn)
			conns.Unlock()
			go ServeConn(conn, HandlerFunc(func(req Request, reply func(Reply)) {
				<-block // hold every request until the "crash"
				reply(Reply{Bytes: req.Bytes})
			}))
		}
	}()

	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const inflight = 16
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := c.CallCtx(context.Background(), Request{JobID: "j", Bytes: int64(i)})
			errs <- err
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the calls get in flight

	// Crash: listener and every accepted conn die at once.
	l.Close()
	conns.Lock()
	for _, conn := range conns.list {
		conn.Close()
	}
	conns.Unlock()

	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("call reported success across a server crash")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d of %d still hung after server crash", i+1, inflight)
		}
	}
	close(block)
}

// twiceServer is a Server that answers every request twice through its
// Responder; it serves nothing through Handle.
type twiceServer struct{}

func (twiceServer) Handle(Request, func(Reply)) {}

func (twiceServer) Serve(req Request, r Responder) {
	r.Reply(Reply{Bytes: req.Bytes})
	r.Reply(Reply{Bytes: -1}) // duplicate for the same seq
}

// TestDuplicateReplyDropped: a buggy or replaying server sends two
// replies for one seq. The first wins; the duplicate is dropped; the
// client stays usable. A Responder is a value, not a one-shot token, so
// the same holds for a Server that replies twice.
func TestDuplicateReplyDropped(t *testing.T) {
	for name, h := range map[string]Handler{
		"handler": HandlerFunc(func(req Request, reply func(Reply)) {
			reply(Reply{Bytes: req.Bytes})
			reply(Reply{Bytes: -1}) // duplicate for the same seq
		}),
		"server": twiceServer{},
	} {
		c := Pipe(h)
		defer c.Close()
		for i := 0; i < 10; i++ {
			rep, err := c.Call(Request{JobID: "j", Bytes: int64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Bytes != int64(i+1) {
				t.Fatalf("%s: call %d got duplicate's payload: %d", name, i, rep.Bytes)
			}
		}
	}
}

// TestDoEncodeFailureRacesFail: sends blocked mid-encode race Close's
// fail() sweep. Every issued call must resolve exactly once — ownership
// of each pending slot belongs to whoever takes it.
func TestDoEncodeFailureRacesFail(t *testing.T) {
	cs, _ := net.Pipe() // nobody reads the server side: writes block
	c := NewClient(cs)
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ch, _, err := c.Do(Request{JobID: "j", Bytes: 1})
				if err != nil {
					return // send failed cleanly
				}
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Error("issued call never resolved")
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	c.Close()
	wg.Wait()
}

func TestParseFault(t *testing.T) {
	f, err := ParseFault("latency=2ms,jitter=1ms,loss=0.1,bw=64MiB")
	if err != nil {
		t.Fatal(err)
	}
	want := Fault{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.1, Bandwidth: 64 << 20}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	if f2, err := ParseFault(f.String()); err != nil || f2 != f {
		t.Fatalf("String round-trip: %+v, %v", f2, err)
	}
	if f, err := ParseFault(""); err != nil || !f.IsZero() {
		t.Fatalf("empty profile: %+v, %v", f, err)
	}
	for _, bad := range []string{"latency", "speed=1ms", "loss=1.5", "latency=-1ms", "bw=fast"} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

// TestFaultLatencyDelays: a 20ms server-side latency profile makes
// every round trip pay at least that.
func TestFaultLatencyDelays(t *testing.T) {
	c := PipeFault(echoHandler, Fault{Latency: 20 * time.Millisecond}, 1)
	defer c.Close()
	start := time.Now()
	if _, err := c.Call(Request{JobID: "j", Bytes: 1}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 20*time.Millisecond {
		t.Fatalf("RTT %v under a 20ms latency fault", rtt)
	}
}

// TestFaultBlackholeFailsAtDeadline: loss=1 models a link retransmitting
// into the void. The call must fail at its deadline — bounded, no hang.
func TestFaultBlackholeFailsAtDeadline(t *testing.T) {
	c := PipeFault(echoHandler, Fault{Loss: 1}, 7)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.CallCtx(ctx, Request{JobID: "j", Bytes: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call took %v; the deadline did not bound it", elapsed)
	}
}

// TestFaultDeterministicJitter: the same seed produces the same delay
// sequence — the property the cell-seeded fault axis depends on.
func TestFaultDeterministicJitter(t *testing.T) {
	sequence := func(seed uint64) []uint64 {
		r := faultRNG{s: seed}
		out := make([]uint64, 8)
		for i := range out {
			out[i] = r.next()
		}
		return out
	}
	a, b := sequence(42), sequence(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if c := sequence(43); a[0] == c[0] {
		t.Fatal("different seeds produced identical first draws")
	}
}

// TestRedialerReconnects: the server's conn dies between calls; the
// redialer detects the poisoned client and dials fresh within one
// call's retry budget.
func TestRedialerReconnects(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var first atomic.Bool
	first.Store(true)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if first.CompareAndSwap(true, false) {
				// First connection: serve one call, then die.
				go func() {
					srv := HandlerFunc(func(req Request, reply func(Reply)) {
						reply(Reply{Bytes: req.Bytes})
						go func() {
							time.Sleep(5 * time.Millisecond)
							conn.Close()
						}()
					})
					ServeConn(conn, srv)
				}()
				continue
			}
			go ServeConn(conn, echoHandler)
		}
	}()

	r := &Redialer{Network: "tcp", Addr: l.Addr().String(), Backoff: 5 * time.Millisecond}
	defer r.Close()
	if _, err := r.Call(Request{JobID: "j", Bytes: 1}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // first conn is now dead
	rep, err := r.Call(Request{JobID: "j", Bytes: 2})
	if err != nil {
		t.Fatalf("call after server conn death: %v", err)
	}
	if rep.Bytes != 2 {
		t.Fatalf("reply bytes = %d, want 2", rep.Bytes)
	}
}

func TestRedialerClosed(t *testing.T) {
	r := &Redialer{Network: "tcp", Addr: "127.0.0.1:1"}
	r.Close()
	if _, err := r.Call(Request{JobID: "j"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestRedialerNoRetryOnRemoteError: a server-reported error means the
// request arrived — retrying is wrong and the attempt count proves it
// did not happen.
func TestRedialerNoRetryOnRemoteError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var served atomic.Int64
	go Serve(l, HandlerFunc(func(req Request, reply func(Reply)) {
		served.Add(1)
		reply(Reply{Err: "denied"})
	}))
	r := &Redialer{Network: "tcp", Addr: l.Addr().String(), Attempts: 3}
	defer r.Close()
	_, err = r.Call(Request{JobID: "j"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("server saw %d requests; a remote error must not be retried", n)
	}
}
