package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/device"
	"adaptbf/internal/obs"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// TestOSSRejectsViaTokenBucket drives an OSS wearing a tiny token
// bucket and checks rejections come back as typed transport errors,
// with the OSS-side counters matching what the client saw.
func TestOSSRejectsViaTokenBucket(t *testing.T) {
	o := NewOSS(OSSConfig{
		Device: fastDevice(),
		Admission: admission.Config{
			Policy:            admission.PolicyTokenBucket,
			CapacityBytes:     2 * kib64,
			RefillBytesPerSec: kib64, // ~1 RPC/s: the burst below must overflow
		},
	})
	t.Cleanup(o.Close)
	c := transport.Pipe(o)
	defer c.Close()

	var served, rejected int
	for i := 0; i < 10; i++ {
		rep, err := c.Call(transport.Request{JobID: "dd.n1", Bytes: kib64, Stream: 1})
		var rej *transport.RejectedError
		switch {
		case err == nil:
			served++
			if rep.Bytes != kib64 {
				t.Fatalf("served RPC reported %d bytes", rep.Bytes)
			}
		case errors.As(err, &rej):
			rejected++
			if rej.Shed {
				t.Fatal("token bucket rejects on arrival; it must never report Shed")
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if served == 0 || rejected == 0 {
		t.Fatalf("want a mix of served and rejected, got %d/%d", served, rejected)
	}
	gotRej, gotShed, offered, goodput := o.AdmissionStats()
	if gotRej != uint64(rejected) || gotShed != 0 {
		t.Fatalf("OSS counters rejected=%d shed=%d, client saw %d rejections", gotRej, gotShed, rejected)
	}
	if offered != 10*kib64 || goodput != int64(served)*kib64 {
		t.Fatalf("offered=%d goodput=%d, want %d and %d", offered, goodput, 10*kib64, served*kib64)
	}
	// Rejected work must leave no demand trace: the tracker only saw the
	// admitted RPCs.
	snap := o.Tracker().Snapshot()
	if len(snap) != 1 || snap[0].RPCs != int64(served) {
		t.Fatalf("tracker snapshot %+v, want %d RPCs", snap, served)
	}
}

// TestOSSShedsPastDeadline saturates an OSS whose deadline-queue
// admission allows a deep queue but a very short wait, and checks
// stale requests are shed with the typed Shed marker.
func TestOSSShedsPastDeadline(t *testing.T) {
	o := NewOSS(OSSConfig{
		Device: fastDevice(),
		Admission: admission.Config{
			Policy:     admission.PolicyDeadlineQueue,
			QueueLimit: 10_000,
			Deadline:   100 * time.Microsecond, // well under a full queue's wait
		},
	})
	t.Cleanup(o.Close)
	c := transport.Pipe(o)
	defer c.Close()

	runner := &JobRunner{
		Job: workload.Job{
			ID:    "dd.n1",
			Nodes: 1,
			// 4 procs × 16 inflight × ~16µs service builds queue waits far
			// beyond the 100µs deadline.
			Procs: []workload.Pattern{
				{FileBytes: 100 * kib64, RPCBytes: kib64, MaxInflight: 16},
				{FileBytes: 100 * kib64, RPCBytes: kib64, MaxInflight: 16},
				{FileBytes: 100 * kib64, RPCBytes: kib64, MaxInflight: 16},
				{FileBytes: 100 * kib64, RPCBytes: kib64, MaxInflight: 16},
			},
		},
		Targets: []transport.Caller{c},
	}
	stats, err := runner.Run(context.Background())
	if err != nil {
		t.Fatalf("shed RPCs must not fail the job: %v", err)
	}
	if stats.Shed == 0 {
		t.Fatal("a 100µs deadline under a deep queue shed nothing")
	}
	if stats.RPCs+stats.Rejected+stats.Shed != 400 {
		t.Fatalf("outcomes don't cover the workload: served %d + rejected %d + shed %d != 400",
			stats.RPCs, stats.Rejected, stats.Shed)
	}
	if stats.OfferedBytes != 400*kib64 {
		t.Fatalf("offered %d bytes, want %d", stats.OfferedBytes, 400*kib64)
	}
	if stats.Bytes != stats.RPCs*kib64 {
		t.Fatalf("goodput %d bytes != served %d × %d (shed work leaked into throughput)",
			stats.Bytes, stats.RPCs, kib64)
	}
}

// countingCaller fails every call with a fixed error and counts the
// attempts — the probe for the retry budget.
type countingCaller struct {
	calls atomic.Int64
	err   error
}

func (c *countingCaller) CallWithin(ctx context.Context, req transport.Request, _ time.Duration) (transport.Reply, error) {
	c.calls.Add(1)
	return transport.Reply{}, c.err
}

func (c *countingCaller) Close() error { return nil }

// TestJobRunnerNeverRetriesRejections pins the no-retry contract: a
// typed admission rejection consumes exactly one attempt however large
// the retry budget, while a plain transport error burns the full
// budget. Retrying a rejection would re-offer exactly the load the
// server is shedding.
func TestJobRunnerNeverRetriesRejections(t *testing.T) {
	for _, tc := range []struct {
		name      string
		err       error
		inflight  int
		wantCalls int64
		wantErr   bool
	}{
		{"refused", &transport.RejectedError{}, 1, 5, false},        // 1 attempt × 5 RPCs, job healthy
		{"shed", &transport.RejectedError{Shed: true}, 1, 5, false}, // same for the shed flavor
		{"refused, window 4", &transport.RejectedError{}, 4, 5, false},
		{"shed, window 4", &transport.RejectedError{Shed: true}, 4, 5, false},
		{"transport", errors.New("conn reset"), 1, 4, true}, // 1+3 retries, first RPC only
	} {
		t.Run(tc.name, func(t *testing.T) {
			target := &countingCaller{err: tc.err}
			runner := &JobRunner{
				Job: workload.Job{
					ID:    "dd.n1",
					Nodes: 1,
					Procs: []workload.Pattern{{FileBytes: 5 * kib64, RPCBytes: kib64, MaxInflight: tc.inflight}},
				},
				Targets:      []transport.Caller{target},
				Retries:      3,
				RetryBackoff: time.Microsecond,
				// Refused work must never flatter the served distribution.
				Observe: func(int64, time.Duration) { t.Error("an RPC that was not served reached Observe") },
			}
			stats, err := runner.Run(context.Background())
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if got := target.calls.Load(); got != tc.wantCalls {
				t.Fatalf("target saw %d calls, want %d", got, tc.wantCalls)
			}
			if !tc.wantErr {
				var rej *transport.RejectedError
				errors.As(tc.err, &rej)
				refused, shed := stats.Rejected+stats.Shed, stats.Shed
				if refused != 5 || stats.OfferedBytes != 5*kib64 {
					t.Fatalf("rejected+shed = %d over %d offered bytes, want all 5 RPCs", refused, stats.OfferedBytes)
				}
				if (shed == 5) != rej.Shed {
					t.Fatalf("shed = %d in case %s", shed, tc.name)
				}
				if stats.RPCs != 0 || stats.Bytes != 0 {
					t.Fatalf("rejected run reported served work: %+v", stats)
				}
			}
		})
	}
}

// TestNodeThreadsAdmission proves NodeConfig.OSS.Admission reaches the
// served OSS and its counters surface in both the live (OpNodeStats)
// and final (Close) stats — the path the remote backend's STATS
// collection depends on.
func TestNodeThreadsAdmission(t *testing.T) {
	n, err := StartNode(NodeConfig{
		Role: "oss",
		OSS: OSSConfig{Device: fastDevice(), Admission: admission.Config{
			Policy:            admission.PolicyTokenBucket,
			CapacityBytes:     2 * kib64,
			RefillBytesPerSec: kib64,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.Dial("tcp", n.Addr())
	if err != nil {
		n.Close()
		t.Fatal(err)
	}
	var rejected int
	for i := 0; i < 10; i++ {
		_, err := c.Call(transport.Request{JobID: "dd.n1", Bytes: kib64, Stream: 1})
		var rej *transport.RejectedError
		if errors.As(err, &rej) {
			rejected++
		} else if err != nil {
			c.Close()
			n.Close()
			t.Fatalf("unexpected error: %v", err)
		}
	}
	c.Close()
	final := n.Close()
	if rejected == 0 {
		t.Fatal("tiny bucket rejected nothing over TCP")
	}
	if final.RejectedRPCs != uint64(rejected) {
		t.Fatalf("final STATS rejected=%d, client saw %d", final.RejectedRPCs, rejected)
	}
	if final.OfferedBytes != 10*kib64 || final.GoodputBytes != int64(10-rejected)*kib64 {
		t.Fatalf("final STATS offered=%d goodput=%d with %d rejections",
			final.OfferedBytes, final.GoodputBytes, rejected)
	}
}

// TestOSSRecyclingKeepsRepliesApart: request nodes are recycled the
// moment the dispatcher is done with one, while other clients' requests
// are being admitted, queued, shed and served around it. Eight clients
// with pairwise-distinct payload sizes offer more than a tight
// deadline-queue lets through, so all three outcomes interleave: every
// served reply must carry its own request's bytes, every other answer
// must be a typed refusal, and the server's books must close over what
// the clients saw — with tracing on, every span id opened exactly once
// and closed exactly once with that RPC's outcome.
func TestOSSRecyclingKeepsRepliesApart(t *testing.T) {
	const clients, lanes = 8, 2 // lanes: concurrent callers per client
	for _, tc := range []struct {
		name   string
		rpcs   int // per lane
		traced bool
	}{
		{"plain", 3500, false}, // 56k RPCs
		{"traced", 500, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := OSSConfig{
				Device: device.Params{BytesPerSec: 1 << 40, PerRPCOverhead: 10 * time.Microsecond},
				Admission: admission.Config{
					Policy:     admission.PolicyDeadlineQueue,
					QueueLimit: clients*lanes - 4, // the last arrivals of a full house are refused
					Deadline:   60 * time.Microsecond,
				},
			}
			var tracer *obs.Tracer
			if tc.traced {
				tracer = obs.NewTracer(func() int64 { return 0 })
				cfg.Obs = &obs.CellObs{Tracer: tracer}
			}
			o := NewOSS(cfg)
			defer o.Close()
			// A reply that went to the wrong client leaves its own waiting.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			var served, servedBytes, refused, shed, offeredBytes atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				c := transport.Pipe(o)
				defer c.Close()
				size := int64(1000 + g) // this client's mark on every request and reply
				for l := 0; l < lanes; l++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < tc.rpcs; i++ {
							rep, err := c.CallCtx(ctx, transport.Request{JobID: "dd.n1", Bytes: size, Stream: int(size)})
							offeredBytes.Add(size)
							var rej *transport.RejectedError
							switch {
							case err == nil && rep.Bytes == size:
								served.Add(1)
								servedBytes.Add(size)
							case err == nil:
								t.Errorf("client %d was served another request's reply: %d bytes", size, rep.Bytes)
								return
							case errors.As(err, &rej) && rej.Shed:
								shed.Add(1)
							case errors.As(err, &rej):
								refused.Add(1)
							default:
								t.Errorf("client %d: %v", size, err)
								return
							}
						}
					}()
				}
			}
			wg.Wait()

			offered := int64(clients * lanes * tc.rpcs)
			if got := served.Load() + refused.Load() + shed.Load(); got != offered {
				t.Fatalf("served %d + refused %d + shed %d = %d, offered %d",
					served.Load(), refused.Load(), shed.Load(), got, offered)
			}
			if served.Load() == 0 || shed.Load() == 0 {
				t.Fatalf("want served and shed RPCs interleaved, got %d served, %d refused, %d shed",
					served.Load(), refused.Load(), shed.Load())
			}
			gotRej, gotShed, gotOffered, goodput := o.AdmissionStats()
			if int64(gotRej) != refused.Load() || int64(gotShed) != shed.Load() {
				t.Fatalf("server counted %d refused / %d shed, clients saw %d / %d", gotRej, gotShed, refused.Load(), shed.Load())
			}
			if gotOffered != offeredBytes.Load() || goodput != servedBytes.Load() {
				t.Fatalf("server offered/goodput %d/%d bytes, clients %d/%d", gotOffered, goodput, offeredBytes.Load(), servedBytes.Load())
			}
			if !tc.traced {
				return
			}
			type life struct {
				begins, ends int
				outcome      string
			}
			rpc := map[uint64]*life{}
			queue := map[uint64]int{} // begins minus ends
			for _, e := range tracer.Events() {
				if e.Phase != obs.PhaseAsyncBegin && e.Phase != obs.PhaseAsyncEnd {
					continue
				}
				switch e.Name {
				case "rpc":
					l := rpc[e.ID]
					if l == nil {
						l = &life{}
						rpc[e.ID] = l
					}
					if e.Phase == obs.PhaseAsyncBegin {
						l.begins++
					} else {
						l.ends++
						l.outcome, _ = e.Args["outcome"].(string)
					}
				case "queue":
					if e.Phase == obs.PhaseAsyncBegin {
						queue[e.ID]++
					} else {
						queue[e.ID]--
					}
				}
			}
			outcomes := map[string]int64{}
			for id, l := range rpc {
				if l.begins != 1 || l.ends != 1 {
					t.Fatalf("span %#x opened %d times, closed %d", id, l.begins, l.ends)
				}
				outcomes[l.outcome]++
			}
			for id, open := range queue {
				if open != 0 {
					t.Fatalf("queue span %#x left %+d", id, open)
				}
			}
			if int64(len(rpc)) != offered || outcomes["served"] != served.Load() ||
				outcomes["rejected"] != refused.Load() || outcomes["shed"] != shed.Load() {
				t.Fatalf("%d spans closed as %v; clients saw %d served, %d refused, %d shed",
					len(rpc), outcomes, served.Load(), refused.Load(), shed.Load())
			}
		})
	}
}
