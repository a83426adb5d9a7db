package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/admission"
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

func (c *countingCaller) CallCtx(ctx context.Context, req transport.Request) (transport.Reply, error) {
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
	job := workload.Job{
		ID:    "dd.n1",
		Nodes: 1,
		Procs: []workload.Pattern{{FileBytes: 5 * kib64, RPCBytes: kib64, MaxInflight: 1}},
	}
	for _, tc := range []struct {
		name      string
		err       error
		wantCalls int64
		wantErr   bool
	}{
		{"refused", &transport.RejectedError{}, 5, false},        // 1 attempt × 5 RPCs, job healthy
		{"shed", &transport.RejectedError{Shed: true}, 5, false}, // same for the shed flavor
		{"transport", errors.New("conn reset"), 4, true},         // 1+3 retries, first RPC only
	} {
		t.Run(tc.name, func(t *testing.T) {
			target := &countingCaller{err: tc.err}
			runner := &JobRunner{
				Job:          job,
				Targets:      []transport.Caller{target},
				Retries:      3,
				RetryBackoff: time.Microsecond,
			}
			stats, err := runner.Run(context.Background())
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if got := target.calls.Load(); got != tc.wantCalls {
				t.Fatalf("target saw %d calls, want %d", got, tc.wantCalls)
			}
			if !tc.wantErr {
				refused, shed := stats.Rejected+stats.Shed, stats.Shed
				if refused != 5 {
					t.Fatalf("rejected+shed = %d, want all 5 RPCs", refused)
				}
				if isShed := tc.name == "shed"; (shed == 5) != isShed {
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
