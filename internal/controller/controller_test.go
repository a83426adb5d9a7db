package controller

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/core"
	"adaptbf/internal/jobstats"
	"adaptbf/internal/race"
	"adaptbf/internal/rules"
	"adaptbf/internal/tbf"
)

func testRig(t *testing.T) (*Controller, *jobstats.Tracker, *tbf.Scheduler) {
	t.Helper()
	tracker := &jobstats.Tracker{}
	sched := tbf.NewScheduler(tbf.Config{})
	alloc := core.New(Config2())
	c := New(Config{
		Stats:  tracker,
		Nodes:  NodeMapperFunc(nodesOf),
		Alloc:  alloc,
		Daemon: rules.New(sched, rules.Config{}),
	})
	return c, tracker, sched
}

// Config2 is the standard 1000 tokens/s, 100ms test allocator config.
func Config2() core.Config {
	return core.Config{MaxRate: 1000, Period: 100 * time.Millisecond}
}

func nodesOf(jobID string) int {
	switch jobID {
	case "big.h":
		return 9
	default:
		return 1
	}
}

func TestTickFullCycle(t *testing.T) {
	c, tracker, sched := testRig(t)
	for i := 0; i < 30; i++ {
		tracker.Observe("big.h", 1<<20)
	}
	for i := 0; i < 5; i++ {
		tracker.Observe("small.h", 1<<20)
	}
	rep := c.Tick(0)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Active != 2 || len(rep.Allocations) != 2 {
		t.Fatalf("active=%d allocations=%d, want 2/2", rep.Active, len(rep.Allocations))
	}
	// Rules installed for both jobs.
	if sched.RuleCount() != 2 {
		t.Fatalf("rules = %d, want 2", sched.RuleCount())
	}
	// Stats cleared for the next observation period (step 9).
	if tracker.ActiveJobs() != 0 {
		t.Fatal("stats not cleared after successful tick")
	}
	// Priority flows from the node mapper: big.h has 90% of nodes.
	for _, al := range rep.Allocations {
		if al.Job == "big.h" && al.Priority != 0.9 {
			t.Errorf("big.h priority = %v, want 0.9", al.Priority)
		}
	}
}

func TestTickIdlePeriodStopsRules(t *testing.T) {
	c, tracker, sched := testRig(t)
	tracker.Observe("j.h", 1)
	c.Tick(0)
	if sched.RuleCount() != 1 {
		t.Fatal("rule not created")
	}
	// Nothing observed in the next period: rule must be stopped.
	rep := c.Tick(int64(100 * time.Millisecond))
	if rep.Active != 0 || len(rep.Allocations) != 0 {
		t.Fatalf("idle tick report: %+v", rep)
	}
	if sched.RuleCount() != 0 {
		t.Fatalf("rules after idle tick = %d, want 0", sched.RuleCount())
	}
}

func TestTickReportsTimings(t *testing.T) {
	c, tracker, _ := testRig(t)
	tracker.Observe("j.h", 1)
	rep := c.Tick(0)
	if rep.AllocTime <= 0 || rep.TotalTime < rep.AllocTime {
		t.Fatalf("timings: alloc=%v total=%v", rep.AllocTime, rep.TotalTime)
	}
}

func TestOnTickObserver(t *testing.T) {
	tracker := &jobstats.Tracker{}
	sched := tbf.NewScheduler(tbf.Config{})
	var seen []TickReport
	c := New(Config{
		Stats:  tracker,
		Nodes:  NodeMapperFunc(func(string) int { return 1 }),
		Alloc:  core.New(Config2()),
		Daemon: rules.New(sched, rules.Config{}),
		OnTick: func(r TickReport) { seen = append(seen, r) },
	})
	tracker.Observe("a.h", 1)
	c.Tick(0)
	c.Tick(1)
	if len(seen) != 2 {
		t.Fatalf("observer saw %d ticks, want 2", len(seen))
	}
}

// failDaemonEngine fails every rule operation, to verify stats are retained
// when rule application fails.
type failEngine struct{}

func (failEngine) AppendRules(dst []tbf.Rule) []tbf.Rule        { return dst }
func (failEngine) StartRule(tbf.Rule, int64) error              { return errors.New("down") }
func (failEngine) ChangeRule(string, float64, int, int64) error { return errors.New("down") }
func (failEngine) StopRule(string, int64) error                 { return errors.New("down") }

func TestStatsRetainedOnDaemonFailure(t *testing.T) {
	tracker := &jobstats.Tracker{}
	c := New(Config{
		Stats:  tracker,
		Nodes:  NodeMapperFunc(func(string) int { return 1 }),
		Alloc:  core.New(Config2()),
		Daemon: rules.New(failEngine{}, rules.Config{}),
	})
	tracker.Observe("a.h", 1)
	rep := c.Tick(0)
	if rep.Err == nil {
		t.Fatal("tick swallowed the daemon error")
	}
	if tracker.ActiveJobs() != 1 {
		t.Fatal("stats cleared despite rule failure; demand observation lost")
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without deps did not panic")
		}
	}()
	New(Config{})
}

func TestRunTicksUntilCancelled(t *testing.T) {
	tracker := &jobstats.Tracker{}
	sched := tbf.NewScheduler(tbf.Config{})
	var ticks atomic.Int32
	c := New(Config{
		Stats:  tracker,
		Nodes:  NodeMapperFunc(func(string) int { return 1 }),
		Alloc:  core.New(core.Config{MaxRate: 1000, Period: 5 * time.Millisecond}),
		Daemon: rules.New(sched, rules.Config{}),
		OnTick: func(TickReport) { ticks.Add(1) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		c.Run(ctx)
		close(done)
	}()
	time.Sleep(60 * time.Millisecond)
	cancel()
	<-done
	if n := ticks.Load(); n < 3 {
		t.Fatalf("only %d ticks in 60ms at 5ms period", n)
	}
}

// observingEngine is a rule engine on a live server: while it changes a
// rule, an RPC arrives and is observed.
type observingEngine struct {
	*tbf.Scheduler
	tracker *jobstats.Tracker
	arrived int
}

func (e *observingEngine) ChangeRule(name string, rate float64, order int, now int64) error {
	e.tracker.Observe("late.h", 1<<20)
	e.arrived++
	return e.Scheduler.ChangeRule(name, rate, order, now)
}

// TestDemandObservedDuringTheCycleCounts: on the wall-clock backends RPCs
// keep arriving while the controller allocates and applies rules. They
// belong to the next observation period; snapshotting first and clearing
// after the rules were applied wiped them out uncounted.
func TestDemandObservedDuringTheCycleCounts(t *testing.T) {
	tracker := &jobstats.Tracker{}
	eng := &observingEngine{Scheduler: tbf.NewScheduler(tbf.Config{}), tracker: tracker}
	c := New(Config{
		Stats:  tracker,
		Nodes:  NodeMapperFunc(func(string) int { return 1 }),
		Alloc:  core.New(Config2()),
		Daemon: rules.New(eng, rules.Config{}),
	})
	observe := func(a, b int) {
		for ; a > 0; a-- {
			tracker.Observe("a.h", 1<<20)
		}
		for ; b > 0; b-- {
			tracker.Observe("b.h", 1<<20)
		}
	}
	observe(5, 500)
	c.Tick(0) // starts both rules
	observe(40, 500)
	if rep := c.Tick(1); rep.Err != nil || eng.arrived == 0 {
		t.Fatalf("premise: the second tick should change rules (err %v, %d changes)", rep.Err, eng.arrived)
	}
	rep := c.Tick(2)
	if rep.Active != 1 || rep.Allocations[0].Job != "late.h" || rep.Allocations[0].Demand != int64(eng.arrived) {
		t.Fatalf("RPCs observed during the previous cycle: %d; next tick saw %d active, allocations %+v",
			eng.arrived, rep.Active, rep.Allocations)
	}
}

// TestTickSteadyStateDoesNotAllocate: the whole cycle — drain, backlog,
// allocate, reconcile — with the same jobs active every period and every
// job's rate changing, at the paper's testbed scale and at 100 jobs.
func TestTickSteadyStateDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, n := range []int{3, 100} {
		tracker := &jobstats.Tracker{}
		sched := tbf.NewScheduler(tbf.Config{})
		backlog := map[string]int{}
		demand := make([]jobstats.Stat, n)
		for j := range demand {
			demand[j].JobID = fmt.Sprintf("job%03d.h", j)
		}
		c := New(Config{
			Stats:  tracker,
			Nodes:  NodeMapperFunc(func(id string) int { return 1 + int(id[5]-'0') }),
			Alloc:  core.New(core.Config{MaxRate: 10000 * float64(n), Period: 100 * time.Millisecond}),
			Daemon: rules.New(sched, rules.Config{}),
			Backlog: func() map[string]int {
				clear(backlog)
				sched.PendingJobsInto(backlog)
				return backlog
			},
		})
		round := 0
		tick := func() {
			round++
			for j := range demand {
				demand[j].RPCs = int64(1 + (round+j*53)%900)
			}
			tracker.Merge(demand)
			rep := c.Tick(int64(round) * int64(c.Period()))
			if rep.Err != nil || rep.Active != n {
				t.Fatalf("n=%d round %d: %d active, err %v", n, round, rep.Active, rep.Err)
			}
			if changes := len(rep.Ops.Applied); round > 2 && changes < n*9/10 {
				t.Fatalf("n=%d round %d: only %d of %d rates changed; the fence wants them all moving", n, round, changes, n)
			}
		}
		tick()
		for j := range demand { // two queued requests per job: every change re-arms a queue
			for k := 0; k < 2; k++ {
				sched.Enqueue(&tbf.Request{JobID: demand[j].JobID, Op: tbf.OpWrite, Bytes: 1 << 20}, 0)
			}
		}
		tick()
		tick()
		if got := testing.AllocsPerRun(50, tick); got != 0 {
			t.Fatalf("n=%d: steady-state Tick allocates %.1f times", n, got)
		}
	}
}
