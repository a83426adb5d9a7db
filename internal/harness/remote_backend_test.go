package harness

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"adaptbf/internal/sim"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// TestRemoteBackendSmoke is the acceptance shape for the process
// boundary: a NoBW/AdapTBF grid where every OSS is its own OS process
// reached over TCP, under an injected 1ms-latency fault profile. Every
// cell must complete with full accounting — and every RPC must have
// completed or failed within its deadline for that to happen.
func TestRemoteBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	m := Matrix{
		Scenarios:    []Scenario{liveScenario()},
		Policies:     []sim.Policy{sim.NoBW, sim.AdapTBF},
		OSSes:        []int{2},
		MaxTokenRate: 4000,
		Period:       20 * time.Millisecond,
		Duration:     30 * time.Second,
		Faults:       mustFaults(t, "latency=1ms"),
	}
	b := &RemoteBackend{Device: liveDevice()}
	res, err := Run(context.Background(), m,
		WithBackend(b), WithDigests(true), WithCellTimeout(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("ran %d cells, want 2", len(res.Cells))
	}
	for _, cr := range res.Cells {
		if cr.Backend != "remote" {
			t.Fatalf("cell %v backend = %q, want remote", cr.Cell, cr.Backend)
		}
		r := cr.Result
		if !r.Done {
			t.Fatalf("cell %v did not finish", cr.Cell)
		}
		if r.ServedRPCs != 64 { // 2 jobs × 2 procs × 16 RPCs
			t.Fatalf("cell %v served %d RPCs, want 64", cr.Cell, r.ServedRPCs)
		}
		if len(r.DeviceBusy) != 2 || r.DeviceBusy[0] <= 0 || r.DeviceBusy[1] <= 0 {
			t.Fatalf("cell %v device stats from node drains: %v", cr.Cell, r.DeviceBusy)
		}
		if cr.LatencyDigest == nil || cr.LatencyDigest.N() != 64 {
			t.Fatalf("cell %v latency digest missing or short", cr.Cell)
		}
		// The 1ms server-side latency fault is paid per reply: observed
		// p50 must sit above 1ms of wire time (scaled into OSS time by
		// the recorder, speedup 1 here).
		if p50 := cr.LatencyDigest.Quantile(50); p50 < time.Millisecond {
			t.Fatalf("cell %v p50 %v under the injected 1ms latency", cr.Cell, p50)
		}
	}
}

// TestRemoteBackendCrashRestart: the first OSS process is SIGKILLed
// mid-run and respawned on the same address. Reconnecting clients plus
// the retry budget must carry every job across the dead window — the
// cell completes, no call hangs.
func TestRemoteBackendCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	m := Matrix{
		Scenarios: []Scenario{{
			Name: "crash-restart",
			Jobs: func(CellParams) []workload.Job {
				pat := workload.Pattern{RPCBytes: 64 << 10, MaxInflight: 2}
				return []workload.Job{
					{ID: "a.n01", Nodes: 1, Procs: []workload.Pattern{pat}},
				}
			},
		}},
		Policies:     []sim.Policy{sim.NoBW},
		OSSes:        []int{2},
		MaxTokenRate: 4000,
		Period:       50 * time.Millisecond,
		Duration:     4 * time.Second,
		Faults:       mustFaults(t, "crash=500ms,restart=300ms"),
	}
	res, err := Run(context.Background(), m,
		WithBackend(&RemoteBackend{Device: liveDevice()}), WithCellTimeout(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0].Result
	if r.ServedRPCs == 0 {
		t.Fatal("no RPCs survived the crash/restart cell")
	}
	// Two device-busy slots still fold (the crashed slot reflects only
	// the respawned process's lifetime, and the second node's is whole).
	if len(r.DeviceBusy) != 2 {
		t.Fatalf("device stats: %v", r.DeviceBusy)
	}
}

// TestRemoteBackendRejectsNothing is the negative space: sim rejects any
// fault profile, live rejects crash — each with an error naming the
// backend that can do it.
func TestFaultBackendCapabilities(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW},
		Duration:  time.Second,
		Faults:    mustFaults(t, "latency=1ms"),
	}
	if _, err := Run(context.Background(), m); err == nil || !strings.Contains(err.Error(), "sim backend cannot inject faults") {
		t.Fatalf("sim backend accepted a fault profile: %v", err)
	}
	m.Faults = mustFaults(t, "crash")
	if _, err := Run(context.Background(), m, WithBackend(&ClusterBackend{Device: liveDevice()})); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("live backend accepted a crash fault: %v", err)
	}
}

func TestParseFaultProfile(t *testing.T) {
	f, err := ParseFaultProfile("latency=2ms,jitter=1ms,loss=0.1,crash=5s,restart=2s,straggler=4")
	if err != nil {
		t.Fatal(err)
	}
	if f.Net.Latency != 2*time.Millisecond || f.Net.Jitter != time.Millisecond || f.Net.Loss != 0.1 {
		t.Fatalf("net half parsed as %+v", f.Net)
	}
	if !f.CrashOSS || f.CrashAfter != 5*time.Second || f.RestartAfter != 2*time.Second || f.StragglerFactor != 4 {
		t.Fatalf("process half parsed as %+v", f)
	}
	if f2, err := ParseFaultProfile(f.String()); err != nil || f2 != f {
		t.Fatalf("String round-trip: %+v, %v", f2, err)
	}
	if f, err := ParseFaultProfile(""); err != nil || !f.IsZero() {
		t.Fatalf("empty profile: %+v, %v", f, err)
	}
	for _, bad := range []string{"restart=2s", "straggler=0.5", "crash=x", "bogus=1"} {
		if _, err := ParseFaultProfile(bad); err == nil {
			t.Errorf("ParseFaultProfile(%q) accepted", bad)
		}
	}
}

func mustFaults(t *testing.T, s string) []FaultProfile {
	t.Helper()
	f, err := ParseFaultProfile(s)
	if err != nil {
		t.Fatal(err)
	}
	return []FaultProfile{f}
}

// TestWaitHealthyOutlivesOneHangUp: one wordless hang-up is not a wire
// mismatch — a node of this build that died under the probe does the
// same, and its successor on the address answers. waitHealthy keeps
// probing and returns the health it is given.
func TestWaitHealthyOutlivesOneHangUp(t *testing.T) {
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
		conn.Read(make([]byte, 4096))
		conn.Close()
		transport.Serve(l, transport.HandlerFunc(func(req transport.Request, reply func(transport.Reply)) {
			reply(transport.Reply{Payload: []byte(`{"role":"oss","policy":"adaptbf"}`)})
		}))
	}()
	h, err := waitHealthy(l.Addr().String())
	if err != nil {
		t.Fatalf("waitHealthy gave up on a node that hung up once: %v", err)
	}
	if h.Role != "oss" || h.Policy != "adaptbf" {
		t.Fatalf("health = %+v, want the served one", h)
	}
}

// TestWaitHealthyNamesWireVersions: a node on another wire version can
// never answer the health probe. waitHealthy must say so at once, with
// both versions, instead of "never became healthy" after
// remoteReadyTimeout. The fake is what a node built before frames did
// with this build's preamble: read it as a malformed gob length, hang up.
func TestWaitHealthyNamesWireVersions(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Read(make([]byte, 4096))
			conn.Close()
		}
	}()
	start := time.Now()
	_, err = waitHealthy(l.Addr().String())
	if !errors.Is(err, transport.ErrHandshake) {
		t.Fatalf("err = %v, want transport.ErrHandshake", err)
	}
	for _, want := range []string{"this side speaks frame v1", "the peer", "NodeBin"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to mention %q", err, want)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("waitHealthy took %v to refuse a peer on another wire", elapsed)
	}
}
