package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"adaptbf/internal/device"
	"adaptbf/internal/race"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// liveRPCs drives the live data path end to end — JobRunner →
// transport.Pipe → OSS, the benchmark's flat-out device, tokens never
// binding — for rpcs RPCs with window in flight, and returns when all are
// served.
func liveRPCs(tb testing.TB, c transport.Caller, window int, rpcs int64) {
	boundedRPCs(tb, c, 0, window, rpcs)
}

// boundedRPCs is liveRPCs through any target, each attempt bounded by
// timeout (0: unbounded, as in-process).
func boundedRPCs(tb testing.TB, c transport.Caller, timeout time.Duration, window int, rpcs int64) {
	runner := &JobRunner{
		Job: workload.Job{ID: "big.n08", Nodes: 1, Procs: []workload.Pattern{
			{FileBytes: rpcs * kib64, RPCBytes: kib64, MaxInflight: window}}},
		Targets:    []transport.Caller{c},
		RPCTimeout: timeout,
		Observe:    func(int64, time.Duration) {},
	}
	stats, err := runner.Run(context.Background())
	if err != nil || stats.RPCs != rpcs {
		tb.Fatalf("served %d of %d RPCs: %v", stats.RPCs, rpcs, err)
	}
}

func flatoutOSS(tb testing.TB) *OSS {
	o := NewOSS(OSSConfig{Device: device.Params{BytesPerSec: 1 << 40, PerRPCOverhead: time.Microsecond}, BucketDepth: 16})
	tb.Cleanup(func() { o.Close() })
	return o
}

func livePipe(tb testing.TB) *transport.Client {
	c := transport.Pipe(flatoutOSS(tb))
	tb.Cleanup(func() { c.Close() })
	return c
}

var liveWindows = []struct {
	name   string
	window int
}{{"serial", 1}, {"window8", 8}}

// BenchmarkLiveRPC is the cost of one live RPC, everything between
// JobRunner.Run and the reply included, one in flight and eight; and,
// as tcp-bounded, of one remote RPC in flight — a bounded attempt through
// a Redialer over loopback TCP.
func BenchmarkLiveRPC(b *testing.B) {
	for _, w := range liveWindows {
		b.Run(w.name, func(b *testing.B) {
			c := livePipe(b)
			liveRPCs(b, c, w.window, 1000) // buffers, free lists and the pipe's goroutines
			b.ReportAllocs()
			b.ResetTimer()
			liveRPCs(b, c, w.window, int64(b.N))
		})
	}
	b.Run("tcp-bounded", func(b *testing.B) {
		r := remoteTarget(b, nil, nil)
		boundedRPCs(b, r, remoteTimeout, 1, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		boundedRPCs(b, r, remoteTimeout, 1, int64(b.N))
	})
}

// TestLiveRPCPathAllocatesNothing fences the live data path's steady
// state: past warm-up an RPC costs no allocation anywhere between the
// runner's claim and the reply's delivery. What a run allocates once —
// its window, its slots' goroutines — is spread over the RPCs and stays
// far under the bound.
func TestLiveRPCPathAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	const rpcs = 50_000
	for _, w := range liveWindows {
		c := livePipe(t)
		liveRPCs(t, c, w.window, 2000)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		liveRPCs(t, c, w.window, rpcs)
		runtime.ReadMemStats(&m1)
		if per := float64(m1.Mallocs-m0.Mallocs) / rpcs; per > 0.05 {
			t.Errorf("%s: %.3f allocations per RPC, want <= 0.05", w.name, per)
		}
	}
}
