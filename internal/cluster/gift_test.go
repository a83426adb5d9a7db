package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"adaptbf/internal/gift"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// walkOnce sends one coordinator walk over the transport and decodes the
// reply.
func walkOnce(t *testing.T, c *transport.Client, active []gift.Activity, maxRate float64) GIFTWalkReply {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(GIFTWalkRequest{Active: active, MaxRate: maxRate}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Call(transport.Request{Op: OpGIFTWalk, Payload: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	var walk GIFTWalkReply
	if err := gob.NewDecoder(bytes.NewReader(rep.Payload)).Decode(&walk); err != nil {
		t.Fatal(err)
	}
	return walk
}

// TestGIFTCoordinatorConcurrentBankConsistency hammers the coordinator
// from many concurrent OSS clients with overlapping applications and
// checks the two centralization invariants under -race:
//
//   - no double-grant: each walk's total grant never exceeds the
//     target's per-epoch token pool (grants beyond a fair share must be
//     funded by ceded bandwidth or redeemed coupons, never minted);
//   - bank conservation: the global coupon balance equals exactly the
//     sum of all coupons earned minus all coupons redeemed, across
//     every walk of every client — no walk ever observes or leaves a
//     torn bank.
func TestGIFTCoordinatorConcurrentBankConsistency(t *testing.T) {
	const (
		clients      = 8
		walksPer     = 50
		maxRate      = 1000.0
		epochSeconds = 0.1
	)
	coord := NewGIFTCoordinator(100 * time.Millisecond)
	pool := maxRate * epochSeconds

	var mu sync.Mutex
	var earned, redeemed float64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := transport.Pipe(coord)
			defer c.Close()
			for w := 0; w < walksPer; w++ {
				// Overlapping job mixes: "shared" appears on every target,
				// the greedy/idle pair alternates per client and walk.
				active := []gift.Activity{
					{Job: "shared.n01", Demand: int64(50 + (ci+w)%100)},
					{Job: fmt.Sprintf("greedy%d.n01", ci%3), Demand: 10000},
					{Job: fmt.Sprintf("idle%d.n01", (ci+w)%4), Demand: 1},
				}
				walk := walkOnce(t, c, active, maxRate)
				var granted, e, r float64
				for _, al := range walk.Allocs {
					granted += float64(al.Tokens)
					e += al.CouponsEarned
					r += al.CouponsRedeemed
				}
				if granted > pool+1e-6 {
					t.Errorf("walk granted %.3f tokens from a %.3f pool", granted, pool)
				}
				mu.Lock()
				earned += e
				redeemed += r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if got := coord.Stats().Walks; got != clients*walksPer {
		t.Fatalf("coordinator served %d walks, want %d", got, clients*walksPer)
	}
	outstanding := coord.Stats().CouponsOutstanding
	if want := earned - redeemed; math.Abs(outstanding-want) > 1e-6*math.Max(1, want) {
		t.Fatalf("coupon bank not conserved: outstanding %.6f, earned-redeemed %.6f", outstanding, want)
	}
	if coord.Stats().BankEntries == 0 {
		t.Fatal("no application ever banked a coupon under idle/greedy demand")
	}
}

// TestGIFTCoordinatorRejectsBadTraffic: a storage opcode or a garbage
// payload is answered with an error, never a torn allocation.
func TestGIFTCoordinatorRejectsBadTraffic(t *testing.T) {
	coord := NewGIFTCoordinator(100 * time.Millisecond)
	c := transport.Pipe(coord)
	defer c.Close()
	if _, err := c.Call(transport.Request{JobID: "dd.n1", Bytes: 1 << 20, Stream: 1}); err == nil {
		t.Fatal("storage RPC accepted by the coordinator")
	}
	if _, err := c.Call(transport.Request{Op: OpGIFTWalk, Payload: []byte("not gob")}); err == nil {
		t.Fatal("garbage walk payload accepted")
	}
	if coord.Stats().Walks != 0 {
		t.Fatal("rejected traffic counted as walks")
	}
}

// TestLiveGIFTAgentsDriveRules runs the full live GIFT stack — two OSSes,
// one central coordinator, one agent per OSS — under real concurrent
// traffic and checks that grants actually reach the storage servers as
// gift_-prefixed TBF rules and that the agents' coordination accounting
// advances.
func TestLiveGIFTAgentsDriveRules(t *testing.T) {
	coord := NewGIFTCoordinator(20 * time.Millisecond)
	coordClient := transport.Pipe(coord)
	defer coordClient.Close()

	osses := []*OSS{testOSS(t), testOSS(t)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := make([]*GIFTAgent, len(osses))
	for i, o := range osses {
		agents[i] = o.NewGIFTAgent(coordClient, 2000, 20*time.Millisecond)
		go agents[i].Run(ctx)
	}

	runCtx, runCancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer runCancel()
	var wg sync.WaitGroup
	for _, id := range []string{"hungry.n02", "modest.n01"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients := []transport.Caller{transport.Pipe(osses[0]), transport.Pipe(osses[1])}
			defer clients[0].Close()
			defer clients[1].Close()
			runner := &JobRunner{
				Job: workload.Job{
					ID:    id,
					Nodes: 1,
					Procs: workload.Replicate(workload.Pattern{RPCBytes: kib64, MaxInflight: 8}, 2),
				},
				Targets: clients,
			}
			runner.Run(runCtx)
		}()
	}
	wg.Wait()
	cancel() // quiesce the agents before reading their stats

	var walks int
	var msgs int64
	ruleSeen := false
	for i, ag := range agents {
		st := ag.Stats()
		walks += len(st.WalkTimes)
		msgs += st.CtrlMsgs
		if st.RuleOps > 0 {
			ruleSeen = true
		}
		for _, r := range osses[i].Engine().AppendRules(nil) {
			if len(r.Name) >= 5 && r.Name[:5] == "gift_" {
				ruleSeen = true
			}
		}
	}
	if walks == 0 {
		t.Fatal("no agent completed a coordinator walk")
	}
	if msgs < 2*int64(walks) {
		t.Fatalf("agents counted %d ctrl msgs over %d walks, want >= 2 per walk", msgs, walks)
	}
	if !ruleSeen {
		t.Fatal("no GIFT grant ever reached a storage server as a TBF rule")
	}
	// Every agent-recorded walk was served centrally (the coordinator may
	// have served one more if a walk was in flight at cancel time).
	if int64(walks) > coord.Stats().Walks {
		t.Fatalf("agents recorded %d walks, coordinator served only %d", walks, coord.Stats().Walks)
	}
}
