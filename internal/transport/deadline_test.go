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

// heardHandler never replies, and reports every request it was handed.
func heardHandler(heard chan<- struct{}) Handler {
	return HandlerFunc(func(Request, func(Reply)) { heard <- struct{}{} })
}

func awaitHeard(t *testing.T, heard <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-heard:
		case <-time.After(5 * time.Second):
			t.Fatalf("the server heard %d of %d requests", i, n)
		}
	}
}

// TestCallWithinBounds: a bounded call ends at its own bound, whatever
// else is outstanding on its client; its context still cancels it
// before the bound; Close fails bounded calls with ErrClosed, not a
// deadline.
func TestCallWithinBounds(t *testing.T) {
	bg := context.Background()
	req := Request{JobID: "j", Bytes: 1}

	t.Run("short after long", func(t *testing.T) {
		heard := make(chan struct{}, 2)
		c := Pipe(heardHandler(heard))
		defer c.Close()
		long := make(chan error, 1)
		go func() {
			_, err := c.CallWithin(bg, req, time.Minute)
			long <- err
		}()
		awaitHeard(t, heard, 1)
		start := time.Now()
		_, err := c.CallWithin(bg, req, 30*time.Millisecond)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed < 30*time.Millisecond || elapsed > 2*time.Second {
			t.Fatalf("a 30ms call ended after %v beside a 1m one", elapsed)
		}
		select {
		case err := <-long:
			t.Fatalf("the 1m call ended with the 30ms one: %v", err)
		default:
		}
	})

	t.Run("cancel before bound", func(t *testing.T) {
		heard := make(chan struct{}, 1)
		c := Pipe(heardHandler(heard))
		defer c.Close()
		ctx, cancel := context.WithCancel(bg)
		go func() {
			<-heard
			cancel()
		}()
		if _, err := c.CallWithin(ctx, req, time.Minute); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("close with bounded calls out", func(t *testing.T) {
		const calls = 4
		heard := make(chan struct{}, calls)
		c := Pipe(heardHandler(heard))
		errs := make(chan error, calls)
		for i := 0; i < calls; i++ {
			go func() {
				_, err := c.CallWithin(bg, req, time.Minute)
				errs <- err
			}()
		}
		awaitHeard(t, heard, calls)
		c.Close()
		for i := 0; i < calls; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("err = %v, want ErrClosed identity", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a bounded call outlived Close")
			}
		}
	})
}

// TestLateReplyAfterBound: a reply that lands after its call expired is
// dropped, and the next call on the same client — on a recycled pending
// slot — gets its own reply, not the late one.
func TestLateReplyAfterBound(t *testing.T) {
	late := make(chan struct{})
	c := Pipe(HandlerFunc(func(req Request, reply func(Reply)) {
		if req.Bytes%2 == 1 { // odd: answered after the caller gave up
			go func() {
				time.Sleep(40 * time.Millisecond)
				reply(Reply{Bytes: req.Bytes})
				late <- struct{}{}
			}()
			return
		}
		reply(Reply{Bytes: req.Bytes})
	}))
	defer c.Close()
	for i := int64(1); i < 10; i += 2 {
		if _, err := c.CallWithin(context.Background(), Request{JobID: "j", Bytes: i}, 5*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want context.DeadlineExceeded", i, err)
		}
		<-late // the stale reply is on the wire ahead of the next call
		rep, err := c.CallWithin(context.Background(), Request{JobID: "j", Bytes: i + 1}, time.Minute)
		if err != nil || rep.Bytes != i+1 {
			t.Fatalf("call %d after a late reply: bytes %d, err %v", i+1, rep.Bytes, err)
		}
	}
}

// TestCallWithinDropsUnderLoad: eight goroutines share one client, every
// call bounded at 1ms, and the server drops every 50th request. A dropped
// call fails with a deadline error within its bound plus 50ms. Every
// other call returns its own Bytes — or, when the host stalls the pair of
// goroutines past 1ms, a deadline error no sooner than its bound; never a
// reply that belongs to another call, and not for more than 1% of them.
func TestCallWithinDropsUnderLoad(t *testing.T) {
	const goroutines, perG, bound = 8, 10_000, time.Millisecond
	c := Pipe(HandlerFunc(func(req Request, reply func(Reply)) {
		if req.Bytes%50 != 0 {
			reply(Reply{Bytes: req.Bytes})
		}
	}))
	defer c.Close()
	var wg sync.WaitGroup
	var missed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perG; i++ {
				b := int64(g*perG + i)
				start := time.Now()
				rep, err := c.CallWithin(context.Background(), Request{JobID: "j", Bytes: b}, bound)
				elapsed := time.Since(start)
				switch {
				case b%50 == 0:
					if !errors.Is(err, context.DeadlineExceeded) || elapsed > bound+50*time.Millisecond {
						t.Errorf("dropped call %d: err %v after %v, want a deadline error within %v", b, err, elapsed, bound+50*time.Millisecond)
						return
					}
				case err == nil && rep.Bytes == b:
				case errors.Is(err, context.DeadlineExceeded) && elapsed >= bound:
					missed.Add(1)
				default:
					t.Errorf("call %d: bytes %d, err %v after %v", b, rep.Bytes, err, elapsed)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := missed.Load(); n > goroutines*perG/100 {
		t.Errorf("%d served calls missed a %v bound", n, bound)
	}
}

// TestRedialerCallTimesOut: the bare Redialer.Call is bounded by
// DefaultCallTimeout as a whole — its attempts share the bound, they do
// not each get one.
func TestRedialerCallTimesOut(t *testing.T) {
	old := DefaultCallTimeout
	DefaultCallTimeout = 50 * time.Millisecond
	defer func() { DefaultCallTimeout = old }()

	r := &Redialer{Attempts: 3, Backoff: time.Millisecond, Dial: func() (net.Conn, error) {
		cs, ss := net.Pipe()
		go ServeConn(ss, muteHandler)
		return cs, nil
	}}
	defer r.Close()
	start := time.Now()
	_, err := r.Call(Request{JobID: "j", Bytes: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded identity", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Call took %v to fail; the default cap did not bite", elapsed)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("%d retries after the call's bound passed", st.Retries)
	}
}
