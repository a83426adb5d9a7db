package harness

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/device"
	"adaptbf/internal/sim"
	"adaptbf/internal/workload"
)

// blockingBackend blocks in RunCell until its context ends — a stand-in
// for a hung cell, for timeout and cancellation tests.
type blockingBackend struct{ started atomic.Int32 }

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) RunCell(ctx context.Context, spec CellSpec) (CellOutcome, error) {
	b.started.Add(1)
	<-ctx.Done()
	return CellOutcome{}, ctx.Err()
}

// waitForGoroutines polls until the goroutine count settles back to at
// most want (plus the runtime's own background variance), failing the
// test if it never does.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d alive, want <= %d", runtime.NumGoroutine(), want)
}

// TestCanceledContextDrainsCleanly is the cancellation contract: a ctx
// canceled mid-matrix makes Run return ctx.Err() promptly, with every
// worker goroutine gone by the time it returns and every undispatched
// cell marked ErrCellSkipped in the partial result.
func TestCanceledContextDrainsCleanly(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF},
		Scales:    []int64{512},
		Seeds:     []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int32
	res, err := Run(ctx, m, WithWorkers(2), WithProgress(func(CellResult) {
		if seen.Add(1) == 1 {
			cancel() // cancel as the first cell completes
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Cells) != 16 {
		t.Fatalf("partial result missing: %+v", res)
	}
	ran, skipped := 0, 0
	for _, cr := range res.Cells {
		switch {
		case cr.Err == nil:
			ran++
		case errors.Is(cr.Err, ErrCellSkipped):
			skipped++
		case errors.Is(cr.Err, context.Canceled):
			// A cell picked up after cancel but before drain.
		default:
			t.Fatalf("unexpected cell error: %v", cr.Err)
		}
	}
	if ran == 0 {
		t.Fatal("no cell completed before the cancel")
	}
	if skipped == 0 {
		t.Fatal("cancel mid-run skipped nothing; the test raced or dispatch ignored ctx")
	}
	// Run wg.Waits its workers, so nothing it started may survive it.
	waitForGoroutines(t, before)
}

// TestCellTimeoutBoundsHungCells: a backend that never returns on its
// own is cut off by WithCellTimeout, and the run completes with per-cell
// deadline errors rather than hanging.
func TestCellTimeoutBoundsHungCells(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW},
		OSSes:     []int{1, 2},
	}
	b := &blockingBackend{}
	res, err := Run(context.Background(), m,
		WithWorkers(2), WithBackend(b), WithCellTimeout(50*time.Millisecond))
	if err == nil {
		t.Fatal("hung cells produced no error")
	}
	for _, cr := range res.Cells {
		if !errors.Is(cr.Err, context.DeadlineExceeded) {
			t.Fatalf("cell %v err = %v, want DeadlineExceeded", cr.Cell, cr.Err)
		}
		if cr.Backend != "blocking" {
			t.Fatalf("cell backend = %q", cr.Backend)
		}
	}
	if got := b.started.Load(); got != 2 {
		t.Fatalf("backend ran %d cells, want 2", got)
	}
}

// TestFailFastAbortsDispatch: with WithFailFast and one worker, the
// first failing cell deterministically stops all later dispatch, the
// failure surfaces in the joined error, and the skipped cells are
// marked.
func TestFailFastAbortsDispatch(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{
			{Name: "bad", Jobs: func(CellParams) []workload.Job { return nil }},
			{Name: "good", Jobs: func(p CellParams) []workload.Job {
				return []workload.Job{workload.Continuous("ok.n01", 1, 1, 2*mib)}
			}},
		},
		Policies: []sim.Policy{sim.NoBW},
		Seeds:    []int64{1, 2, 3},
	}
	res, err := Run(context.Background(), m, WithWorkers(1), WithFailFast())
	if err == nil {
		t.Fatal("failing cell produced no error")
	}
	if !errors.Is(err, ErrCellSkipped) {
		t.Fatalf("joined error does not mention skipped cells: %v", err)
	}
	if res.Cells[0].Err == nil {
		t.Fatal("first cell should have failed")
	}
	for _, cr := range res.Cells[1:] {
		if !errors.Is(cr.Err, ErrCellSkipped) {
			t.Fatalf("cell %v after the failure: err = %v, want ErrCellSkipped", cr.Cell, cr.Err)
		}
	}
}

// TestPerJobDigestsCapture: WithDigests(true) captures one digest per
// job whose sample counts partition the cell digest exactly, without
// changing the fingerprint (per-job digests are reporting-only).
func TestPerJobDigestsCapture(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF},
		Scales:    []int64{256},
		OSSes:     []int{2},
	}
	plain, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	withJobs, err := Run(context.Background(), m, WithDigests(true))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() != withJobs.Fingerprint() {
		t.Fatal("per-job digest capture changed the matrix fingerprint")
	}
	for _, cr := range plain.Cells {
		if cr.JobDigests != nil {
			t.Fatal("per-job digests captured without WithDigests")
		}
	}
	for _, cr := range withJobs.Cells {
		if len(cr.JobDigests) != 3 {
			t.Fatalf("cell %v has %d job digests, want 3", cr.Cell, len(cr.JobDigests))
		}
		var total int64
		prev := ""
		for _, jd := range cr.JobDigests {
			if jd.Job <= prev {
				t.Fatalf("job digests out of order: %q after %q", jd.Job, prev)
			}
			prev = jd.Job
			if jd.Digest.N() == 0 {
				t.Fatalf("cell %v job %s digest empty", cr.Cell, jd.Job)
			}
			total += jd.Digest.N()
		}
		if total != cr.LatencyDigest.N() {
			t.Fatalf("cell %v: per-job digests hold %d samples, cell digest %d",
				cr.Cell, total, cr.LatencyDigest.N())
		}
	}
}

// TestSimBackendStampsName: the default backend labels every cell "sim".
func TestSimBackendStampsName(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW},
		Scales:    []int64{512},
	}
	res, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Backend != "sim" {
		t.Fatalf("backend = %q, want sim", res.Cells[0].Backend)
	}
}

// ---- live (cluster) backend ----

// liveDevice is fast enough that wall-clock cells finish in tens of
// milliseconds: 64 KiB RPCs at 4 GiB/s.
func liveDevice() device.Params {
	return device.Params{
		BytesPerSec:        4 << 30,
		PerRPCOverhead:     5 * time.Microsecond,
		ConcurrencyPenalty: 200 * time.Nanosecond,
	}
}

// liveScenario is a small two-job workload sized for wall-clock runs:
// 2 jobs × 2 procs × 16 RPCs of 64 KiB, seed-jittered starts.
func liveScenario() Scenario {
	return Scenario{
		Name: "live-smoke",
		Jobs: func(p CellParams) []workload.Job {
			procs := []workload.Pattern{
				{FileBytes: 16 * 64 << 10, RPCBytes: 64 << 10},
				{FileBytes: 16 * 64 << 10, RPCBytes: 64 << 10},
			}
			return []workload.Job{
				{ID: "small.n01", Nodes: 1, Procs: procs},
				{ID: "big.n04", Nodes: 4, Procs: procs},
			}
		},
	}
}

// TestClusterBackendGrid is the live acceptance shape: the FULL policy
// axis (all five policies) × 2 OSSes runs end to end on real
// storage-server goroutines, every cell completes with served RPCs,
// per-OSS device stats, latency digests, and the "live" backend label.
func TestClusterBackendGrid(t *testing.T) {
	m := Matrix{
		Scenarios:    []Scenario{liveScenario()},
		Policies:     []sim.Policy{sim.NoBW, sim.StaticBW, sim.SFQ, sim.AdapTBF, sim.GIFT},
		OSSes:        []int{2},
		MaxTokenRate: 4000,
		Period:       20 * time.Millisecond,
		Duration:     30 * time.Second,
	}
	b := &ClusterBackend{Device: liveDevice()}
	res, err := Run(context.Background(), m,
		WithBackend(b), WithDigests(true), WithCellTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5 {
		t.Fatalf("ran %d cells, want 5", len(res.Cells))
	}
	for _, cr := range res.Cells {
		if cr.Backend != "live" {
			t.Fatalf("cell %v backend = %q, want live", cr.Cell, cr.Backend)
		}
		r := cr.Result
		if !r.Done {
			t.Fatalf("cell %v did not finish", cr.Cell)
		}
		if r.ServedRPCs != 64 { // 2 jobs × 2 procs × 16 RPCs
			t.Fatalf("cell %v served %d RPCs, want 64", cr.Cell, r.ServedRPCs)
		}
		if got := r.Timeline.GrandTotalBytes(); got != 64*(64<<10) {
			t.Fatalf("cell %v timeline holds %d bytes", cr.Cell, got)
		}
		if len(r.DeviceBusy) != 2 || r.DeviceBusy[0] <= 0 || r.DeviceBusy[1] <= 0 {
			t.Fatalf("cell %v device stats: %v", cr.Cell, r.DeviceBusy)
		}
		if len(r.FinishTimes) != 2 || r.Elapsed <= 0 {
			t.Fatalf("cell %v finish bookkeeping: %v elapsed %v", cr.Cell, r.FinishTimes, r.Elapsed)
		}
		if cr.LatencyDigest == nil || cr.LatencyDigest.N() != 64 {
			t.Fatalf("cell %v latency digest missing or short", cr.Cell)
		}
		if len(cr.JobDigests) != 2 {
			t.Fatalf("cell %v has %d per-job digests, want 2", cr.Cell, len(cr.JobDigests))
		}
	}
	// The merged report renders live cells like any others.
	rep := res.Report()
	if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) != 5 {
		t.Fatalf("live report malformed: %+v", rep.Tables)
	}
}

// TestClusterBackendRejectsUnknownPolicy: a policy value outside the
// implemented set fails the cell with a clear error, not a silent FCFS
// fallback.
func TestClusterBackendRejectsUnknownPolicy(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{liveScenario()},
		Policies:  []sim.Policy{sim.Policy(99)},
		Duration:  5 * time.Second,
	}
	res, err := Run(context.Background(), m, WithBackend(&ClusterBackend{Device: liveDevice()}))
	if err == nil {
		t.Fatal("unknown live policy produced no error")
	}
	for _, cr := range res.Cells {
		if cr.Err == nil {
			t.Fatalf("cell %v accepted", cr.Cell)
		}
	}
}

// TestClusterBackendLiveGIFTCoordination: a live GIFT cell long enough
// to span several epochs actually exercises the central coordinator —
// walk round-trips land in TickTimes, the deterministic message counter
// advances, and rule operations reach the storage servers.
func TestClusterBackendLiveGIFTCoordination(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{{
			Name: "gift-live",
			Jobs: func(CellParams) []workload.Job {
				// Unbounded writers with unequal demand: coupon flow every
				// epoch until the duration cap.
				return []workload.Job{
					{ID: "greedy.n01", Nodes: 1, Procs: workload.Replicate(workload.Pattern{RPCBytes: 64 << 10, MaxInflight: 16}, 4)},
					{ID: "meek.n01", Nodes: 1, Procs: []workload.Pattern{{RPCBytes: 64 << 10, MaxInflight: 1}}},
				}
			},
		}},
		Policies:     []sim.Policy{sim.GIFT},
		OSSes:        []int{2},
		MaxTokenRate: 2000,
		Period:       20 * time.Millisecond,
		Duration:     400 * time.Millisecond,
	}
	res, err := Run(context.Background(), m, WithBackend(&ClusterBackend{Device: liveDevice()}))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0].Result
	if r.Done {
		t.Fatal("unbounded GIFT cell reported Done")
	}
	if len(r.TickTimes) == 0 {
		t.Fatal("no coordinator walks recorded in TickTimes")
	}
	if r.CtrlMsgs < 2*int64(len(r.TickTimes)) {
		t.Fatalf("CtrlMsgs = %d for %d walks, want >= 2 per walk", r.CtrlMsgs, len(r.TickTimes))
	}
	if r.RuleOps == 0 {
		t.Fatal("no TBF rule operations reached the storage servers")
	}
}

// TestClusterBackendHonorsCancel: canceling the run context tears a
// live cell down promptly and the run reports ctx.Err().
func TestClusterBackendHonorsCancel(t *testing.T) {
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
		Duration: time.Hour,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, m, WithBackend(&ClusterBackend{Device: liveDevice()}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("cancel took %v to unwind a live cell", e)
	}
}

// TestCtrlMsgsDeterministic pins the deterministic coordination counter:
// two identical AdapTBF runs report the same positive CtrlMsgs, and a
// GIFT run's count is positive too (NoBW has no controller, so zero).
func TestCtrlMsgsDeterministic(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF, sim.GIFT},
		Scales:    []int64{256},
		OSSes:     []int{2},
	}
	a, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), m, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range a.Cells {
		got, again := cr.Result.CtrlMsgs, b.Cells[i].Result.CtrlMsgs
		if got != again {
			t.Fatalf("cell %v CtrlMsgs nondeterministic: %d vs %d", cr.Cell, got, again)
		}
		switch cr.Cell.Policy {
		case sim.NoBW:
			if got != 0 {
				t.Fatalf("NoBW cell counted %d controller messages", got)
			}
		default:
			if got <= 0 {
				t.Fatalf("%v cell counted no controller messages", cr.Cell.Policy)
			}
		}
	}
}
