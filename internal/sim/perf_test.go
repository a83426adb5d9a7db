package sim

import (
	"testing"
	"time"

	"adaptbf/internal/workload"
)

// throttledConfig is a wake-heavy scenario: one token-starved job behind a
// static rule misses on almost every dequeue attempt, so the OST is
// constantly arming wake timers between sparse dispatches.
func throttledConfig() Config {
	return Config{
		Policy: StaticBW,
		Jobs: []workload.Job{
			{ID: "slow.n01", Nodes: 1, Procs: []workload.Pattern{{
				FileBytes:   64 * mib,
				RPCBytes:    mib,
				MaxInflight: 8,
			}}},
		},
		MaxTokenRate:     40, // rule rate = 40 · 1/5 = 8 tokens/s: throttled hard
		StaticTotalNodes: 5,
		Duration:         30 * time.Second,
	}
}

// TestNoRedundantWakeEvents is the stale-wake regression gate (the old
// kick could schedule a fresh loop.At wake on every Dequeue miss even
// while an earlier wake was queued or the device had gone busy, so event
// counts grew with the miss rate instead of the dispatch rate). With the
// wake-generation counter, the whole run stays within a small per-RPC
// event budget: issue/arrive/serve/reply are 4 events, and wakes add at
// most ~1 fired timer per dispatch in this fully throttled scenario.
func TestNoRedundantWakeEvents(t *testing.T) {
	res, err := Run(throttledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("throttled run did not finish")
	}
	if res.ServedRPCs == 0 {
		t.Fatal("no RPCs served")
	}
	// Guarded kick: ~3.97 events/RPC here (issue+arrive+serve+reply plus
	// one wake per throttled dispatch). Re-arming on every miss pushes it
	// to ~4.8; the threshold sits between the two.
	perRPC := float64(res.Events) / float64(res.ServedRPCs)
	if perRPC > 4.3 {
		t.Fatalf("processed %.2f events/RPC (%d events, %d RPCs); redundant wakes are back",
			perRPC, res.Events, res.ServedRPCs)
	}
}

// TestWakeSuppressionPreservesResults: suppressing redundant wakes must
// not change what the simulation computes, only how many events it burns.
// (The matrix-wide equivalence lives in the harness golden test; this is
// the fast local check on the wake-heavy scenario.)
func TestWakeSuppressionPreservesResults(t *testing.T) {
	a, err := Run(throttledConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(throttledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("throttled runs diverge")
	}
	if a.Elapsed != b.Elapsed || a.ServedRPCs != b.ServedRPCs {
		t.Fatal("throttled runs diverge in makespan or served RPCs")
	}
}

// allocsPerRPC measures steady-state heap allocations per served RPC: it
// warms the simulation (pools grown, schedulers settled), then steps a
// large slice of the event stream under testing.AllocsPerRun and divides
// by the RPCs served in that window.
func allocsPerRPC(t *testing.T, cfg Config, warmEvents, runs, eventsPerRun int) float64 {
	t.Helper()
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := newSimulation(c, NewScratch())
	s.start()
	for i := 0; i < warmEvents; i++ {
		if !s.loop.Step() {
			t.Fatal("simulation drained during warm-up; enlarge the workload")
		}
	}
	served := func() uint64 {
		var n uint64
		for _, o := range s.osts {
			got, _, _ := o.dev.Stats()
			n += got
		}
		return n
	}
	before := served()
	avgPerRun := testing.AllocsPerRun(runs, func() {
		for i := 0; i < eventsPerRun; i++ {
			if !s.loop.Step() {
				t.Fatal("simulation drained mid-measurement; enlarge the workload")
			}
		}
	})
	rpcs := served() - before
	if rpcs == 0 {
		t.Fatal("no RPCs served during measurement window")
	}
	// AllocsPerRun runs the body runs+1 times; the served counter saw all
	// of them, while avgPerRun is already the per-run average.
	return avgPerRun * float64(runs+1) / float64(rpcs)
}

func steadyStateJobs(files int64) []workload.Job {
	return []workload.Job{
		workload.Continuous("hog.n02", 2, 6, files*mib),
		workload.Continuous("mid.n03", 3, 4, files*mib),
		workload.Continuous("hot.n05", 5, 4, files*mib),
	}
}

// TestSteadyStateAllocBudgets pins the zero-allocation refactor: the
// per-RPC path may allocate at most 2 allocations per RPC under NoBW and
// SFQ, and the control loops of AdapTBF and GIFT — a tick per storage
// target per period, with every job active throughout — add next to
// nothing on top (what is left is the results' tick-time slices growing).
func TestSteadyStateAllocBudgets(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		budget float64
	}{
		{"NoBW", NoBW, 2.0},
		{"AdapTBF", AdapTBF, 0.05},
		{"GIFT", GIFT, 0.05},
		{"SFQ", SFQ, 2.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Policy:   tc.policy,
				Jobs:     steadyStateJobs(16384), // 16 GiB/proc: far beyond the window
				OSTs:     2,
				Duration: 2 * time.Hour,
			}
			got := allocsPerRPC(t, cfg, 20000, 8, 20000)
			if got > tc.budget {
				t.Fatalf("%s: %.3f allocs/RPC, budget %v", tc.name, got, tc.budget)
			}
			t.Logf("%s: %.3f allocs/RPC (budget %v)", tc.name, got, tc.budget)
		})
	}
}

// TestRecordsNilUnlessSampled: Result.Records is only materialized when
// SampleRecords asks for it; its accessors stay safe on the nil default.
func TestRecordsNilUnlessSampled(t *testing.T) {
	jobs := []workload.Job{workload.Continuous("j.n01", 1, 2, 4*mib)}
	res, err := Run(Config{Policy: AdapTBF, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatal("Records allocated without SampleRecords")
	}
	if res.Records.Names() != nil || res.Records.Get("x") != nil || res.Records.Last("x") != 0 {
		t.Fatal("nil Records accessors misbehave")
	}
	res, err = Run(Config{Policy: AdapTBF, Jobs: jobs, SampleRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == nil || len(res.Records.Names()) == 0 {
		t.Fatal("SampleRecords did not collect series")
	}
}
