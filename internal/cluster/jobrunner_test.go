package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// An arrival is one call a probe target received.
type arrival struct {
	target int
	req    transport.Request
	at     time.Time
}

// A probe stands in for a job's storage targets: it records every call
// in arrival order and, per stream, how many calls are outstanding and
// the most that ever were — the fence for JobRunner's window semantics.
// With verdicts nil a call is answered at once; otherwise it parks until
// the test hands it a verdict (nil serves it, an error fails it) or, unless
// deaf, its context ends.
type probe struct {
	arrivals chan arrival // sized by the test to every call it expects
	verdicts chan error
	deaf     bool // a parked call ignores its context

	mu   sync.Mutex
	out  map[int]int
	peak map[int]int
}

func newProbe(expect int, held bool) *probe {
	p := &probe{arrivals: make(chan arrival, expect), out: map[int]int{}, peak: map[int]int{}}
	if held {
		p.verdicts = make(chan error)
	}
	return p
}

// targets returns n callers that all report to p, each under its index.
func (p *probe) targets(n int) []transport.Caller {
	ts := make([]transport.Caller, n)
	for i := range ts {
		ts[i] = probeTarget{p, i}
	}
	return ts
}

// peaks reports the most calls each stream ever had outstanding.
func (p *probe) peaks() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]int, len(p.peak))
	for s, n := range p.peak {
		out[s] = n
	}
	return out
}

// await receives n arrivals, failing the test if they do not come.
func (p *probe) await(t *testing.T, n int) []arrival {
	t.Helper()
	got := make([]arrival, 0, n)
	for len(got) < n {
		select {
		case a := <-p.arrivals:
			got = append(got, a)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d expected calls arrived", len(got), n)
		}
	}
	return got
}

// serveUntil hands out serve verdicts until done closes.
func (p *probe) serveUntil(done <-chan struct{}) {
	for {
		select {
		case p.verdicts <- nil:
		case <-done:
			return
		}
	}
}

type probeTarget struct {
	p *probe
	i int
}

func (t probeTarget) Close() error { return nil }

func (t probeTarget) CallWithin(ctx context.Context, req transport.Request, _ time.Duration) (transport.Reply, error) {
	p := t.p
	p.mu.Lock()
	p.out[req.Stream]++
	if p.out[req.Stream] > p.peak[req.Stream] {
		p.peak[req.Stream] = p.out[req.Stream]
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.out[req.Stream]--
		p.mu.Unlock()
	}()
	p.arrivals <- arrival{target: t.i, req: req, at: time.Now()}
	if p.verdicts == nil {
		return transport.Reply{Bytes: req.Bytes}, nil
	}
	done := ctx.Done()
	if p.deaf {
		done = nil
	}
	select {
	case err := <-p.verdicts:
		if err != nil {
			return transport.Reply{}, err
		}
		return transport.Reply{Bytes: req.Bytes}, nil
	case <-done:
		return transport.Reply{}, ctx.Err()
	}
}

type runOutcome struct {
	stats JobStats
	err   error
}

// runAsync starts r.Run and returns where its outcome lands.
func runAsync(ctx context.Context, r *JobRunner) <-chan runOutcome {
	done := make(chan runOutcome, 1)
	go func() {
		st, err := r.Run(ctx)
		done <- runOutcome{st, err}
	}()
	return done
}

func awaitRun(t *testing.T, done <-chan runOutcome) runOutcome {
	t.Helper()
	select {
	case out := <-done:
		return out
	case <-time.After(5 * time.Second):
		t.Fatal("JobRunner.Run did not return")
		return runOutcome{}
	}
}

// TestJobRunnerWindow: against targets that hold every reply, each
// process's outstanding RPCs reach MaxInflight and stop there — nothing
// more is issued until a reply frees a slot — and never exceed it for
// the rest of the run.
func TestJobRunnerWindow(t *testing.T) {
	const procs, perProc = 2, 20
	for _, window := range []int{1, 3, 8} {
		p := newProbe(procs*perProc, true)
		runner := &JobRunner{
			Job: workload.Job{ID: "win.n1", Nodes: 1, Procs: workload.Replicate(
				workload.Pattern{FileBytes: perProc * kib64, RPCBytes: kib64, MaxInflight: window}, procs)},
			Targets: p.targets(2),
		}
		done := runAsync(context.Background(), runner)
		p.await(t, procs*window) // every process fills its window...
		select {                 // ...and issues nothing beyond it
		case a := <-p.arrivals:
			t.Fatalf("window %d: stream %d issued past a full window", window, a.req.Stream)
		case <-time.After(20 * time.Millisecond):
		}
		stop := make(chan struct{})
		go p.serveUntil(stop)
		out := awaitRun(t, done)
		close(stop)
		if out.err != nil || out.stats.RPCs != procs*perProc {
			t.Fatalf("window %d: served %d RPCs, err %v; want %d", window, out.stats.RPCs, out.err, procs*perProc)
		}
		peaks := p.peaks()
		if len(peaks) != procs {
			t.Fatalf("window %d: %d streams, want one per process", window, len(peaks))
		}
		for stream, peak := range peaks {
			if peak != window {
				t.Errorf("window %d: stream %d peaked at %d outstanding", window, stream, peak)
			}
		}
	}
}

// TestJobRunnerFirstErrorStopsWindow: the first transport error ends
// issuing — only calls already in flight finish after it — and comes
// back wrapped exactly once.
func TestJobRunnerFirstErrorStopsWindow(t *testing.T) {
	const window = 4
	boom := errors.New("boom")
	p := newProbe(100, true)
	runner := &JobRunner{
		Job: workload.Job{ID: "err.n1", Nodes: 1, Procs: []workload.Pattern{
			{FileBytes: 100 * kib64, RPCBytes: kib64, MaxInflight: window}}},
		Targets: p.targets(1),
	}
	done := runAsync(context.Background(), runner)
	p.await(t, window)
	p.verdicts <- boom
	// Let the error land before the rest of the window is answered: a reply
	// that beats it may rightly be followed by one more RPC.
	time.Sleep(20 * time.Millisecond)
	stop := make(chan struct{})
	go p.serveUntil(stop)
	out := awaitRun(t, done)
	close(stop)
	if !errors.Is(out.err, boom) || out.err.Error() != "cluster: boom" {
		t.Fatalf("err = %v, want the transport error wrapped once", out.err)
	}
	issued := window + len(p.arrivals)
	if issued > 2*window-1 {
		t.Fatalf("%d RPCs issued around an error in a window of %d", issued, window)
	}
	if out.stats.RPCs > int64(issued-1) {
		t.Fatalf("served %d of %d issued, one of which failed", out.stats.RPCs, issued)
	}
}

// TestJobRunnerCancelOnMuteServer: a server that accepts requests and
// never answers cannot hold a cancelled run — the calls in flight end
// with the context, long before their attempt deadline, and Run reports
// ctx.Err().
func TestJobRunnerCancelOnMuteServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		pat  workload.Pattern
	}{
		{"unbounded", workload.Pattern{RPCBytes: kib64, MaxInflight: 4}},
		{"bounded", workload.Pattern{FileBytes: 100 * kib64, RPCBytes: kib64, MaxInflight: 4}},
		{"bursts", workload.Pattern{RPCBytes: kib64, MaxInflight: 4, BurstRPCs: 4, BurstInterval: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heard := make(chan struct{}, 16)
			c := transport.Pipe(transport.HandlerFunc(func(transport.Request, func(transport.Reply)) {
				heard <- struct{}{}
			}))
			defer c.Close()
			runner := &JobRunner{
				Job:        workload.Job{ID: "mute.n1", Nodes: 1, Procs: []workload.Pattern{tc.pat}},
				Targets:    []transport.Caller{c},
				RPCTimeout: time.Minute,
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := runAsync(ctx, runner)
			for i := 0; i < 4; i++ {
				select {
				case <-heard:
				case <-time.After(5 * time.Second):
					t.Fatal("the window never reached the server")
				}
			}
			cancel()
			out := awaitRun(t, done)
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("err = %v, want the context's", out.err)
			}
			if out.stats.RPCs != 0 || out.stats.Rejected+out.stats.Shed != 0 {
				t.Fatalf("a mute server's run reported outcomes: %+v", out.stats)
			}
		})
	}
}

// TestJobRunnerCountsReplyAtExpiry: a bounded run whose last reply
// lands as the context ends still reports that RPC — what was served is
// counted whether or not the run is over.
func TestJobRunnerCountsReplyAtExpiry(t *testing.T) {
	const rpcs = 6
	p := newProbe(rpcs, true)
	p.deaf = true
	var observed int
	var mu sync.Mutex
	runner := &JobRunner{
		Job: workload.Job{ID: "late.n1", Nodes: 1, Procs: []workload.Pattern{
			{FileBytes: rpcs * kib64, RPCBytes: kib64, MaxInflight: 2}}},
		Targets: p.targets(1),
		Observe: func(int64, time.Duration) { mu.Lock(); observed++; mu.Unlock() },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runAsync(ctx, runner)
	for i := 0; i < rpcs-1; i++ {
		p.verdicts <- nil
	}
	p.await(t, rpcs) // the last RPC is out
	cancel()
	p.verdicts <- nil
	out := awaitRun(t, done)
	if out.err != nil || out.stats.RPCs != rpcs || out.stats.Bytes != rpcs*kib64 || out.stats.OfferedBytes != rpcs*kib64 {
		t.Fatalf("stats %+v, err %v; want all %d RPCs reported", out.stats, out.err, rpcs)
	}
	mu.Lock()
	defer mu.Unlock()
	if observed != rpcs {
		t.Fatalf("observer saw %d of %d RPCs", observed, rpcs)
	}
}
