package rules

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"adaptbf/internal/core"
	"adaptbf/internal/race"
	"adaptbf/internal/tbf"
)

func alloc(job core.JobID, rate, prio float64) core.Allocation {
	return core.Allocation{Job: job, Rate: rate, Priority: prio, Tokens: int64(rate / 10)}
}

func rulesByName(e Engine) map[string]tbf.Rule {
	m := map[string]tbf.Rule{}
	for _, r := range e.AppendRules(nil) {
		m[r.Name] = r
	}
	return m
}

func TestApplyCreatesRules(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	d := New(s, Config{})
	ops, err := d.Apply([]core.Allocation{
		alloc("j1", 100, 0.1),
		alloc("j4", 500, 0.5),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if starts, changes, stops := ops.Counts(); starts != 2 || changes != 0 || stops != 0 {
		t.Fatalf("ops = %d starts, %d changes, %d stops; want 2/0/0", starts, changes, stops)
	}
	m := rulesByName(s)
	r1, ok1 := m["adaptbf_j1"]
	r4, ok4 := m["adaptbf_j4"]
	if !ok1 || !ok4 {
		t.Fatalf("rules missing: %v", m)
	}
	if r1.Rate != 100 || r4.Rate != 500 {
		t.Errorf("rates = %v, %v; want 100, 500", r1.Rate, r4.Rate)
	}
	// Higher priority job gets the lower (better) order.
	if r4.Order >= r1.Order {
		t.Errorf("hierarchy wrong: j4 order %d !< j1 order %d", r4.Order, r1.Order)
	}
}

func TestApplyChangesOnlyWhenNeeded(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	d := New(s, Config{})
	allocs := []core.Allocation{alloc("a", 100, 0.4), alloc("b", 200, 0.6)}
	if _, err := d.Apply(allocs, 0); err != nil {
		t.Fatal(err)
	}
	// Identical allocations: no ops at all.
	ops, err := d.Apply(allocs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops.Applied) != 0 {
		t.Fatalf("idempotent Apply produced ops: %+v", ops.Applied)
	}
	// Rate moves: exactly one change.
	allocs[0] = alloc("a", 150, 0.4)
	ops, err = d.Apply(allocs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if starts, changes, stops := ops.Counts(); starts != 0 || changes != 1 || stops != 0 {
		t.Fatalf("ops = %d/%d/%d, want 0/1/0", starts, changes, stops)
	}
	if got := rulesByName(s)["adaptbf_a"].Rate; got != 150 {
		t.Fatalf("rate after change = %v, want 150", got)
	}
}

func TestApplyStopsInactiveJobs(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	d := New(s, Config{})
	d.Apply([]core.Allocation{alloc("a", 100, 0.5), alloc("b", 100, 0.5)}, 0)
	ops, err := d.Apply([]core.Allocation{alloc("a", 200, 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, stops := ops.Counts(); stops != 1 {
		t.Fatalf("stops = %d, want 1", stops)
	}
	if _, ok := rulesByName(s)["adaptbf_b"]; ok {
		t.Fatal("rule for inactive job b survived")
	}
}

func TestApplyPreservesForeignRules(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	admin := tbf.Rule{Name: "admin_cap", Match: tbf.Match{JobIDs: []string{"scratch.*"}}, Rate: 10, Order: 0}
	if err := s.StartRule(admin, 0); err != nil {
		t.Fatal(err)
	}
	d := New(s, Config{})
	d.Apply([]core.Allocation{alloc("a", 100, 1.0)}, 0)
	d.Apply(nil, 1) // everything inactive
	if _, ok := rulesByName(s)["admin_cap"]; !ok {
		t.Fatal("administrator rule was removed by the daemon")
	}
	if _, ok := rulesByName(s)["adaptbf_a"]; ok {
		t.Fatal("daemon rule not removed")
	}
}

func TestMinRateFloor(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	d := New(s, Config{MinRate: 5})
	d.Apply([]core.Allocation{{Job: "starved", Rate: 0, Priority: 1}}, 0)
	if got := rulesByName(s)["adaptbf_starved"].Rate; got != 5 {
		t.Fatalf("rate = %v, want floor 5", got)
	}
}

func TestOrdersAreDeterministicAndRanked(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	d := New(s, Config{})
	d.Apply([]core.Allocation{
		alloc("j1", 100, 0.1),
		alloc("j2", 100, 0.1), // tie with j1: broken by job ID
		alloc("j3", 300, 0.3),
		alloc("j4", 500, 0.5),
	}, 0)
	m := rulesByName(s)
	if !(m["adaptbf_j4"].Order < m["adaptbf_j3"].Order &&
		m["adaptbf_j3"].Order < m["adaptbf_j1"].Order &&
		m["adaptbf_j1"].Order < m["adaptbf_j2"].Order) {
		t.Fatalf("orders not ranked by priority: %v", m)
	}
	if m["adaptbf_j4"].Order != 1 {
		t.Fatalf("top order = %d, want 1 (0 reserved for admin rules)", m["adaptbf_j4"].Order)
	}
}

func TestStopAll(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	s.StartRule(tbf.Rule{Name: "keep", Rate: 1}, 0)
	d := New(s, Config{})
	d.Apply([]core.Allocation{alloc("a", 1, 0.5), alloc("b", 1, 0.5)}, 0)
	if err := d.StopAll(1); err != nil {
		t.Fatal(err)
	}
	m := rulesByName(s)
	if len(m) != 1 {
		t.Fatalf("rules after StopAll = %v, want only 'keep'", m)
	}
	if _, ok := m["keep"]; !ok {
		t.Fatal("foreign rule removed by StopAll")
	}
}

// failingEngine wraps a real scheduler but fails the nth call.
type failingEngine struct {
	*tbf.Scheduler
	calls    int
	failCall int
}

var errInjected = errors.New("injected failure")

func (f *failingEngine) StartRule(r tbf.Rule, now int64) error {
	f.calls++
	if f.calls == f.failCall {
		return errInjected
	}
	return f.Scheduler.StartRule(r, now)
}

func TestApplySurfacesEngineErrorsAndConverges(t *testing.T) {
	fe := &failingEngine{Scheduler: tbf.NewScheduler(tbf.Config{}), failCall: 2}
	d := New(fe, Config{})
	allocs := []core.Allocation{alloc("a", 100, 0.5), alloc("b", 100, 0.5)}
	ops, err := d.Apply(allocs, 0)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if len(ops.Applied) != 1 {
		t.Fatalf("partial ops = %d, want 1 (first start succeeded)", len(ops.Applied))
	}
	// Next period: reconciliation completes the missing rule.
	if _, err := d.Apply(allocs, 1); err != nil {
		t.Fatal(err)
	}
	if len(rulesByName(fe.Scheduler)) != 2 {
		t.Fatal("daemon did not converge after transient failure")
	}
}

func TestRuleNameRoundTrip(t *testing.T) {
	d := New(tbf.NewScheduler(tbf.Config{}), Config{Prefix: "x_"})
	name := d.RuleName("dd.node-07")
	if name != "x_dd.node-07" {
		t.Fatalf("RuleName = %q", name)
	}
	job, ok := d.jobOf(name)
	if !ok || job != "dd.node-07" {
		t.Fatalf("jobOf(%q) = %q, %v", name, job, ok)
	}
	if _, ok := d.jobOf("other_rule"); ok {
		t.Fatal("foreign rule claimed by daemon")
	}
}

func TestNilEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil) did not panic")
		}
	}()
	New(nil, Config{})
}

func TestOpsDuration(t *testing.T) {
	s := tbf.NewScheduler(tbf.Config{})
	d := New(s, Config{})
	ops, _ := d.Apply([]core.Allocation{alloc("a", 1, 1)}, 0)
	if ops.Duration <= 0 || ops.Duration > time.Second {
		t.Fatalf("implausible duration %v", ops.Duration)
	}
}

// TestApplyMatchesDesiredStateOnRandomRounds: through jobs arriving,
// leaving, returning, changing priority or nothing changing at all, every
// Apply leaves exactly one rule per allocated job, at the allocation's
// (floored) rate and at its rank by (priority descending, job ID) — the
// fence for the slot table's recycling and the ranking kept across rounds.
func TestApplyMatchesDesiredStateOnRandomRounds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := tbf.NewScheduler(tbf.Config{})
		d := New(s, Config{MinRate: 2})
		var allocs []core.Allocation
		for round := 0; round < 200; round++ {
			switch rng.Intn(4) {
			case 0: // same jobs, same priorities: only rates move
				for i := range allocs {
					allocs[i].Rate = float64(rng.Intn(500))
				}
			case 1: // one job changes priority
				if len(allocs) > 0 {
					allocs[rng.Intn(len(allocs))].Priority = float64(rng.Intn(4)) / 4
				}
			default: // a new active set
				allocs = allocs[:0]
				for j := 0; j < 12; j++ {
					if rng.Intn(2) == 0 {
						allocs = append(allocs, alloc(core.JobID(fmt.Sprintf("job%02d", j)), float64(rng.Intn(500)), float64(rng.Intn(4))/4))
					}
				}
			}
			if _, err := d.Apply(allocs, int64(round)); err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(allocs)
			sort.Slice(want, func(i, j int) bool {
				if want[i].Priority != want[j].Priority {
					return want[i].Priority > want[j].Priority
				}
				return want[i].Job < want[j].Job
			})
			got := rulesByName(s)
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: %d rules for %d allocations", seed, round, len(got), len(want))
			}
			for i, al := range want {
				r, ok := got[d.RuleName(al.Job)]
				if !ok || r.Rate != math.Max(al.Rate, 2) || r.Order != i+1 {
					t.Fatalf("seed %d round %d: job %s has rule %+v (present %v), want rate %v order %d",
						seed, round, al.Job, r, ok, math.Max(al.Rate, 2), i+1)
				}
			}
		}
	}
}

// TestApplySteadyStateDoesNotAllocate: the same 100 jobs every period,
// every rate changing — the reconciliation the controller pays for every
// 100 ms on every storage target — touches the heap not once.
func TestApplySteadyStateDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	d := New(tbf.NewScheduler(tbf.Config{}), Config{})
	rounds := [2][]core.Allocation{}
	for r := range rounds {
		for j := 0; j < 100; j++ {
			rounds[r] = append(rounds[r], alloc(core.JobID(fmt.Sprintf("job%03d", j)), float64(100+j+50*r), float64(1+j%8)/450))
		}
	}
	round := 0
	apply := func() {
		round++
		ops, err := d.Apply(rounds[round%2], int64(round))
		if err != nil || (round > 1 && len(ops.Applied) != 100) {
			t.Fatalf("round %d: %d ops, err %v; want all 100 rates changed", round, len(ops.Applied), err)
		}
	}
	apply()
	apply()
	if n := testing.AllocsPerRun(100, apply); n != 0 {
		t.Fatalf("steady-state Apply allocates %.1f times", n)
	}
}
