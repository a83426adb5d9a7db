package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/race"
)

// TestCallAllocs: the fence for the codec and the pooled call. A CallCtx
// round trip over a pipe allocates the server's reply closure and
// nothing the wire is responsible for; three leaves room for what a
// handler contract forces, none for a reflective encoder.
func TestCallAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := Pipe(echoHandler)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background()) // a Done channel, as every live caller has
	defer cancel()
	req := Request{JobID: "big.n08", Op: 1, Bytes: 64 << 10, Stream: 3}
	if _, err := c.CallCtx(ctx, req); err != nil { // the preamble, the intern table, the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := c.CallCtx(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a CallCtx round trip allocates %.1f times, want ≤ 3", allocs)
	}
}

// countingConn counts the Writes that reach the connection under it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedPipe serves h over a pipe whose two directions count their
// Writes.
func countedPipe(h Handler) (c *Client, client, server *countingConn) {
	cs, ss := net.Pipe()
	client, server = &countingConn{Conn: cs}, &countingConn{Conn: ss}
	go func() {
		defer server.Close()
		_ = ServeConn(server, h)
	}()
	return NewClient(client), client, server
}

// TestLoneFrameWrittenBySender: with one call in flight there is nothing
// to share a write with, so each frame — request and reply — is one
// Write by its own sender, never a hand-off.
func TestLoneFrameWrittenBySender(t *testing.T) {
	c, client, server := countedPipe(echoHandler)
	defer c.Close()
	const calls = 200
	for i := 0; i < calls; i++ {
		if _, err := c.Call(Request{JobID: "j", Bytes: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w := client.writes.Load(); w != calls {
		t.Errorf("client made %d writes for %d lone requests", w, calls)
	}
	if w := server.writes.Load(); w != calls {
		t.Errorf("server made %d writes for %d lone replies", w, calls)
	}
}

// TestBusySendersShareWrites: sixteen callers on one processor. A
// sender that is not alone queues its frame and the flusher yields
// before it writes, so the callers made runnable by one batch of replies
// all get their requests into the next Write. The prototype measured
// 0.15–0.4 writes per frame; one write per frame is what this fences
// against, and half is far from both.
func TestBusySendersShareWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, client, _ := countedPipe(echoHandler)
	defer c.Close()
	const callers, each = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.CallCtx(context.Background(), Request{JobID: "j", Bytes: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	frames := int64(callers * each)
	if w := client.writes.Load(); w > frames/2 {
		t.Fatalf("client made %d writes for %d frames from %d concurrent callers: senders are not sharing", w, frames, callers)
	} else {
		t.Logf("%d writes for %d frames (%.2f per frame)", w, frames, float64(w)/float64(frames))
	}
}

// gatedConn holds its hold-th Write until released; the others pass, or,
// after it and with thenFail set, fail.
type gatedConn struct {
	net.Conn
	hold     int64
	release  chan struct{}
	thenFail bool
	writes   atomic.Int64
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if n := c.writes.Add(1); n == c.hold {
		<-c.release
	} else if n > c.hold && c.thenFail {
		return 0, errors.New("write side dead")
	}
	return c.Conn.Write(p)
}

// TestQueueBackpressure: senders may not run ahead of the wire. Whoever
// holds it in a Write that does not return — a lone sender with its own
// frame, or the flusher with a batch, which counts against the bound like
// the frames queued behind it — exactly maxQueued sends are accepted and
// the next sender waits, as every sender once did on the write lock, until
// a Write returns; nothing is lost on the way.
func TestQueueBackpressure(t *testing.T) {
	for name, hold := range map[string]int64{"lone sender holds the wire": 1, "flusher holds the wire": 2} {
		t.Run(name, func(t *testing.T) {
			open := make(chan struct{})
			cs, ss := net.Pipe()
			go ServeConn(ss, HandlerFunc(func(req Request, reply func(Reply)) {
				go func() { <-open; reply(Reply{Bytes: req.Bytes}) }()
			}))
			defer ss.Close()
			conn := &gatedConn{Conn: cs, hold: hold, release: make(chan struct{})}
			c := NewClient(conn)
			defer c.Close()

			const extra = 3 * maxQueued
			replies := make(chan (<-chan Reply), 1+extra)
			do := func() {
				ch, _, err := c.Do(Request{JobID: "j", Bytes: 1})
				if err != nil {
					t.Error(err)
				}
				replies <- ch
			}
			go do() // alone: writes its own frame
			for conn.writes.Load() == 0 {
				runtime.Gosched()
			}
			var sent atomic.Int64
			go func() {
				for i := 0; i < extra; i++ {
					do()
					sent.Add(1)
				}
			}()
			for sent.Load() < maxQueued {
				runtime.Gosched()
			}
			time.Sleep(20 * time.Millisecond)
			if n := sent.Load(); n != maxQueued {
				t.Fatalf("%d sends returned with the wire held, want exactly maxQueued = %d", n, maxQueued)
			}
			close(conn.release)
			close(open)
			for i := 0; i < 1+extra; i++ {
				select {
				case rep := <-<-replies:
					if rep.Err != "" {
						t.Fatalf("reply %d: %s", i, rep.Err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("reply %d of %d never came", i, 1+extra)
				}
			}
		})
	}
}

// TestQueuedFrameWriteFailure: a call whose frame was queued has
// returned from its send by the time the flusher's Write fails on its
// behalf. It must still fail with the connection's error, promptly —
// not sit out its deadline on a connection nobody poisoned.
func TestQueuedFrameWriteFailure(t *testing.T) {
	cs, ss := net.Pipe()
	go ServeConn(ss, muteHandler)
	defer ss.Close()
	conn := &gatedConn{Conn: cs, hold: 1, release: make(chan struct{}), thenFail: true}
	c := NewClient(conn)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	call := func() {
		_, err := c.CallCtx(ctx, Request{JobID: "j", Bytes: 1})
		errs <- err
	}
	go call() // alone: writes its own frame, and blocks in the Write
	for conn.writes.Load() == 0 {
		runtime.Gosched()
	}
	go call() // not alone: queued behind the first
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 2 {
			break
		}
		runtime.Gosched()
	}
	close(conn.release) // the first write lands; the flusher's then fails

	start := time.Now()
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want the connection's write error", i, err)
		}
		if !strings.Contains(err.Error(), "write side dead") {
			t.Errorf("call %d: err = %v, want it to carry the write error", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("calls took %v to fail after the write did", elapsed)
	}
	if c.Err() == nil {
		t.Fatal("client not poisoned by a failed write")
	}
}

// TestServeConnLocalClose: closing the served side of a pipe is a clean
// shutdown (io.ErrClosedPipe), like closing a served TCP connection
// (net.ErrClosed) — before the first frame and after one.
func TestServeConnLocalClose(t *testing.T) {
	for _, afterCall := range []bool{false, true} {
		cs, ss := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- ServeConn(ss, echoHandler) }()
		c := NewClient(cs)
		if afterCall {
			if _, err := c.Call(Request{JobID: "j", Bytes: 1}); err != nil {
				t.Fatal(err)
			}
		}
		ss.Close()
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("after a call=%v: ServeConn returned %v on a locally closed pipe, want nil", afterCall, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("after a call=%v: ServeConn still serving a closed pipe", afterCall)
		}
		c.Close()
	}
}

// TestFaultChargedPerMessage: replies that share the flusher still reach
// a faulted connection one per Write, so each pays its own delay and
// takes its own draw from the connection's RNG, in send order — the
// fault axis reads the same as when every reply was its sender's Write.
func TestFaultChargedPerMessage(t *testing.T) {
	const calls = 8
	const latency = 2 * time.Millisecond

	// Hold every request until all have arrived, then answer them at
	// once from their own goroutines: no reply is alone.
	var mu sync.Mutex
	var held []func()
	h := HandlerFunc(func(req Request, reply func(Reply)) {
		mu.Lock()
		defer mu.Unlock()
		held = append(held, func() { reply(Reply{Bytes: req.Bytes}) })
		if len(held) == calls {
			for _, answer := range held {
				go answer()
			}
			held = nil
		}
	})

	cs, ss := net.Pipe()
	under := &countingConn{Conn: ss}
	const seed = 42
	fc := FaultedConn(under, Fault{Latency: latency, Jitter: 100 * time.Microsecond}, seed)
	go func() {
		defer fc.Close()
		_ = ServeConn(fc, h)
	}()
	c := NewClient(cs)
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if _, err := c.Call(Request{JobID: "j", Bytes: int64(i)}); err != nil {
				t.Error(err)
			}
			if rtt := time.Since(start); rtt < latency {
				t.Errorf("call %d took %v under a %v latency fault", i, rtt, latency)
			}
		}()
	}
	wg.Wait()
	if w := under.writes.Load(); w != calls {
		t.Errorf("%d replies reached the faulted connection as %d writes", calls, w)
	}
	want := faultRNG{s: seed}
	for i := 0; i < calls; i++ {
		want.next()
	}
	f := fc.(*faultedConn)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng != want {
		t.Errorf("after %d replies the connection's RNG is not %d draws from its seed: the jitter sequence shifted", calls, calls)
	}
}
