package cluster

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/race"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// remoteTimeout is the remote backend's attempt bound.
const remoteTimeout = 15 * time.Second

// remoteTarget is the remote backend's target shape in one process: a
// one-attempt Redialer over loopback TCP to transport.Serve(OSS). server
// and client, when set, count the system calls of their end of each
// connection.
func remoteTarget(tb testing.TB, server, client *connCount) *transport.Redialer {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	r := &transport.Redialer{Network: "tcp", Addr: l.Addr().String(), Attempts: 1}
	if client != nil {
		r.Dial = func() (net.Conn, error) {
			c, err := net.Dial(r.Network, r.Addr)
			if err != nil {
				return nil, err
			}
			return &countedConn{c, client}, nil
		}
	}
	o := flatoutOSS(tb)
	if server != nil {
		go transport.Serve(countedListener{l, server}, o)
	} else {
		go transport.Serve(l, o)
	}
	tb.Cleanup(func() {
		r.Close()
		l.Close()
	})
	return r
}

// A connCount tallies Read and Write calls — each one system call on a
// TCP connection — made on the connections it wraps.
type connCount struct{ reads, writes atomic.Int64 }

type countedConn struct {
	net.Conn
	n *connCount
}

func (c *countedConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

type countedListener struct {
	net.Listener
	n *connCount
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{c, l.n}, nil
}

// TestRemoteRPCPathAllocatesNothing is TestLiveRPCPathAllocatesNothing on
// the remote backend's path: every attempt bounded by its RPCTimeout,
// through a Redialer over loopback TCP to the OSS — bounding an attempt
// costs no allocation.
func TestRemoteRPCPathAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	const rpcs = 50_000
	for _, w := range liveWindows {
		r := remoteTarget(t, nil, nil)
		boundedRPCs(t, r, remoteTimeout, w.window, 2000)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		boundedRPCs(t, r, remoteTimeout, w.window, rpcs)
		runtime.ReadMemStats(&m1)
		if per := float64(m1.Mallocs-m0.Mallocs) / rpcs; per > 0.05 {
			t.Errorf("%s: %.3f allocations per RPC, want <= 0.05", w.name, per)
		}
	}
}

// TestRemoteRPCSyscalls accounts for the remote path's socket system
// calls, per RPC and per end of the connection: one in flight costs at
// most one read and one write on each end, and eight in flight cost
// less on each, because one read drains every frame that has arrived and
// busy senders share a write.
func TestRemoteRPCSyscalls(t *testing.T) {
	const rpcs = 20_000
	per := map[string][4]float64{}
	for _, w := range liveWindows {
		var server, client connCount
		r := remoteTarget(t, &server, &client)
		boundedRPCs(t, r, remoteTimeout, w.window, 1000)
		sr, sw, cr, cw := server.reads.Load(), server.writes.Load(), client.reads.Load(), client.writes.Load()
		boundedRPCs(t, r, remoteTimeout, w.window, rpcs)
		per[w.name] = [4]float64{
			float64(server.reads.Load()-sr) / rpcs, float64(server.writes.Load()-sw) / rpcs,
			float64(client.reads.Load()-cr) / rpcs, float64(client.writes.Load()-cw) / rpcs,
		}
		t.Logf("%s: per RPC, node %.3f reads %.3f writes, harness %.3f reads %.3f writes",
			w.name, per[w.name][0], per[w.name][1], per[w.name][2], per[w.name][3])
	}
	names := [4]string{"node reads", "node writes", "harness reads", "harness writes"}
	for i, name := range names {
		if s := per["serial"][i]; s > 1 {
			t.Errorf("serial: %.3f %s per RPC, want <= 1", s, name)
		}
		if s, w := per["serial"][i], per["window8"][i]; w >= s {
			t.Errorf("window8: %.3f %s per RPC, not below serial's %.3f", w, name, s)
		}
	}
}

// TestJobRunnerAttemptTimesOut: against a server that accepts requests
// and never answers, each attempt fails at RPCTimeout with
// context.DeadlineExceeded identity and is retried Retries times, whether
// the target is a Client or a one-attempt Redialer over TCP.
func TestJobRunnerAttemptTimesOut(t *testing.T) {
	const timeout, retries = 30 * time.Millisecond, 2
	heard := make(chan struct{}, retries+1)
	mute := transport.HandlerFunc(func(transport.Request, func(transport.Reply)) { heard <- struct{}{} })
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) transport.Caller
	}{
		{"client", func(*testing.T) transport.Caller { return transport.Pipe(mute) }},
		{"redialer", func(t *testing.T) transport.Caller {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go transport.Serve(l, mute)
			return &transport.Redialer{Network: "tcp", Addr: l.Addr().String(), Attempts: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.target(t)
			defer c.Close()
			runner := &JobRunner{
				Job: workload.Job{ID: "mute.n1", Nodes: 1, Procs: []workload.Pattern{
					{FileBytes: kib64, RPCBytes: kib64, MaxInflight: 1}}},
				Targets:      []transport.Caller{c},
				RPCTimeout:   timeout,
				Retries:      retries,
				RetryBackoff: time.Millisecond,
			}
			start := time.Now()
			out := awaitRun(t, runAsync(context.Background(), runner))
			elapsed := time.Since(start)
			if !errors.Is(out.err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded identity", out.err)
			}
			if out.stats.Retries != retries || len(heard) != retries+1 {
				t.Fatalf("%d retries, %d attempts heard; want %d and %d", out.stats.Retries, len(heard), retries, retries+1)
			}
			for len(heard) > 0 {
				<-heard
			}
			if elapsed < (retries+1)*timeout {
				t.Fatalf("%d attempts of %v each ended after %v", retries+1, timeout, elapsed)
			}
		})
	}
}
