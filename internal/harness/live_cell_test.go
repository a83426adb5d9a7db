package harness

import (
	"context"
	"testing"
	"time"

	"adaptbf/internal/policy"
	"adaptbf/internal/sim"
	"adaptbf/internal/workload"
)

// TestPlacementParity: the one live-cell runner keeps the same books
// wherever its servers run. In-process and (unless -short) process
// placement × every policy in the table, on a 2-OSS cell of unbounded
// jobs capped at 300 ms: every RPC that got an answer is accounted
// exactly once, the digest holds the served ones, each OSS reports its
// device, the cell ends at the cap with Done=false like the simulator
// hitting its own, and a central-coordinator policy's walks are counted
// on both sides of the process boundary.
func TestPlacementParity(t *testing.T) {
	const rpcBytes = 64 << 10
	var policies []sim.Policy
	for _, d := range policy.All() {
		policies = append(policies, d.Policy)
	}
	m := Matrix{
		Scenarios: []Scenario{{
			Name: "parity",
			Jobs: func(CellParams) []workload.Job {
				pat := workload.Pattern{RPCBytes: rpcBytes, MaxInflight: 2}
				return []workload.Job{
					{ID: "a.n01", Nodes: 1, Procs: []workload.Pattern{pat}},
					{ID: "b.n04", Nodes: 4, Procs: []workload.Pattern{pat}},
				}
			},
		}},
		Policies:     policies,
		OSSes:        []int{2},
		MaxTokenRate: 4000,
		Period:       20 * time.Millisecond,
		Duration:     300 * time.Millisecond,
	}
	backends := []Backend{&ClusterBackend{Device: liveDevice()}}
	if !testing.Short() {
		backends = append(backends, &RemoteBackend{Device: liveDevice()})
	}
	for _, b := range backends {
		t.Run(b.Name(), func(t *testing.T) {
			res, err := Run(context.Background(), m, WithBackend(b), WithCellTimeout(2*time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Cells) != len(policies) {
				t.Fatalf("ran %d cells, want %d", len(res.Cells), len(policies))
			}
			for _, cr := range res.Cells {
				r := cr.Result
				if cr.Backend != b.Name() {
					t.Errorf("cell %v backend = %q, want %q", cr.Cell, cr.Backend, b.Name())
				}
				if r.Done || r.ServedRPCs == 0 {
					t.Errorf("cell %v: Done=%v with %d RPCs served; an unbounded cell runs to the cap", cr.Cell, r.Done, r.ServedRPCs)
				}
				if got := int64(r.ServedRPCs+r.Rejected+r.Shed) * rpcBytes; got != r.OfferedBytes {
					t.Errorf("cell %v: served+rejected+shed = %d bytes, offered %d", cr.Cell, got, r.OfferedBytes)
				}
				if cr.LatencyDigest == nil || cr.LatencyDigest.N() != int64(r.ServedRPCs) {
					t.Errorf("cell %v: latency digest does not hold the %d served RPCs", cr.Cell, r.ServedRPCs)
				}
				if len(r.DeviceBusy) != 2 {
					t.Errorf("cell %v: device stats %v, want one per OSS", cr.Cell, r.DeviceBusy)
				}
				if d, _ := policy.Lookup(cr.Cell.Policy); d.Control == policy.CentralCoordinator && (r.CtrlMsgs == 0 || r.RuleOps == 0) {
					t.Errorf("cell %v: CtrlMsgs=%d RuleOps=%d; no coordinator walk was counted", cr.Cell, r.CtrlMsgs, r.RuleOps)
				}
			}
		})
	}
}

// TestRemoteTeardownWaitsForNothing: the runner closes every client
// connection before it asks a node to stop, so the node's graceful drain
// has nothing to wait for. A 1-OSS, 300 ms remote cell spends under 2 s
// outside its makespan (spawn, readiness, teardown — it was 5 s of drain
// timeout when connections were still open at the interrupt), and the
// node's STATS line still arrives.
func TestRemoteTeardownWaitsForNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	b := &RemoteBackend{Device: liveDevice()}
	if _, err := b.bin(); err != nil { // keep the one-time build out of the timing
		t.Fatal(err)
	}
	m := Matrix{
		Scenarios: []Scenario{{
			Name: "unbounded",
			Jobs: func(CellParams) []workload.Job {
				return []workload.Job{{
					ID: "inf.n01", Nodes: 1,
					Procs: []workload.Pattern{{RPCBytes: 64 << 10}},
				}}
			},
		}},
		Policies: []sim.Policy{sim.NoBW},
		Duration: 300 * time.Millisecond,
	}
	start := time.Now()
	res, err := Run(context.Background(), m, WithBackend(b))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0].Result
	if over := wall - r.Elapsed; over > 2*time.Second {
		t.Fatalf("cell took %v for a %v makespan: %v of setup and teardown, want < 2s", wall, r.Elapsed, over)
	}
	if len(r.DeviceBusy) != 1 || r.DeviceBusy[0] <= 0 {
		t.Fatalf("device stats %v: the node's STATS line did not arrive", r.DeviceBusy)
	}
}
