package tbf

import (
	"fmt"
	"math/rand"
	"testing"

	"adaptbf/internal/race"
)

func req(job string) *Request { return &Request{JobID: job, Op: OpWrite, Bytes: 1 << 20} }

// drain pulls every request servable at the given instant.
func drain(s *Scheduler, now int64) []*Request {
	var out []*Request
	for {
		r, _, ok := s.Dequeue(now)
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestNoRulesIsFCFS(t *testing.T) {
	s := NewScheduler(Config{})
	for i := 0; i < 5; i++ {
		s.Enqueue(&Request{JobID: fmt.Sprintf("j%d", i)}, 0)
	}
	got := drain(s, 0)
	if len(got) != 5 {
		t.Fatalf("served %d, want 5", len(got))
	}
	for i, r := range got {
		if want := fmt.Sprintf("j%d", i); r.JobID != want {
			t.Errorf("position %d served %s, want %s (FCFS violated)", i, r.JobID, want)
		}
	}
	_, _, fb := s.Stats()
	if fb != 5 {
		t.Errorf("fallbackServed = %d, want 5", fb)
	}
}

func TestRuleLimitsRate(t *testing.T) {
	s := NewScheduler(Config{BucketDepth: 3})
	if err := s.StartRule(Rule{Name: "r1", Match: Match{JobIDs: []string{"job"}}, Rate: 10}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Enqueue(req("job"), 0)
	}
	// At t=0 the bucket is full (depth 3): exactly 3 may pass.
	if got := len(drain(s, 0)); got != 3 {
		t.Fatalf("burst at t=0 served %d, want 3 (bucket depth)", got)
	}
	// Over the next second at 10 tokens/s, ~10 more.
	served := 0
	for now := int64(0); now <= second; now += second / 1000 {
		served += len(drain(s, now))
	}
	if served < 9 || served > 11 {
		t.Fatalf("served %d in 1s at rate 10, want ~10", served)
	}
}

func TestDequeueReportsWakeTime(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"j"}}, Rate: 10}, 0)
	for i := 0; i < 5; i++ {
		s.Enqueue(req("j"), 0)
	}
	drain(s, 0) // empties the bucket
	_, wake, ok := s.Dequeue(0)
	if ok {
		t.Fatal("dequeued with empty bucket")
	}
	want := second / 10
	if wake < want-2 || wake > want+2 {
		t.Fatalf("wake = %v, want ~%v", wake, want)
	}
	if r, _, ok := s.Dequeue(wake); !ok || r == nil {
		t.Fatal("request not servable at reported wake time")
	}
}

func TestDequeueIdle(t *testing.T) {
	s := NewScheduler(Config{})
	_, wake, ok := s.Dequeue(0)
	if ok || wake != InfiniteDeadline {
		t.Fatalf("empty scheduler Dequeue = (%v, %v), want (InfiniteDeadline, false)", wake, ok)
	}
}

func TestFallbackServedWhenRegulatedNotReady(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"limited"}}, Rate: 1}, 0)
	for i := 0; i < 10; i++ {
		s.Enqueue(req("limited"), 0)
	}
	drain(s, 0) // exhaust limited's bucket
	s.Enqueue(req("free"), 0)
	r, _, ok := s.Dequeue(0)
	if !ok || r.JobID != "free" {
		t.Fatalf("expected opportunistic fallback service of 'free', got %+v ok=%v", r, ok)
	}
}

func TestRegulatedPreferredOverFallbackWhenReady(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"limited"}}, Rate: 100}, 0)
	s.Enqueue(req("free"), 0)
	s.Enqueue(req("limited"), 0)
	r, _, ok := s.Dequeue(0)
	if !ok || r.JobID != "limited" {
		t.Fatalf("ready regulated queue not preferred; served %+v", r)
	}
}

func TestRuleHierarchyPriority(t *testing.T) {
	// Two queues both eligible at t=0; the lower-order rule must be served
	// first, per the rule hierarchy the daemon establishes.
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "low", Match: Match{JobIDs: []string{"lowjob"}}, Rate: 100, Order: 20}, 0)
	s.StartRule(Rule{Name: "high", Match: Match{JobIDs: []string{"highjob"}}, Rate: 100, Order: 10}, 0)
	s.Enqueue(req("lowjob"), 0)
	s.Enqueue(req("highjob"), 0)
	r, _, ok := s.Dequeue(0)
	if !ok || r.JobID != "highjob" {
		t.Fatalf("priority hierarchy violated: served %v first", r.JobID)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "a", Match: Match{JobIDs: []string{"dd.*"}}, Rate: 5, Order: 1}, 0)
	s.StartRule(Rule{Name: "b", Match: Match{JobIDs: []string{"*"}}, Rate: 50, Order: 2}, 0)
	s.Enqueue(req("dd.n1"), 0)
	s.Enqueue(req("x.n1"), 0)
	// dd.n1 must be under rule a (depth 3 tokens), x.n1 under b.
	got := drain(s, 0)
	if len(got) != 2 {
		t.Fatalf("served %d, want 2", len(got))
	}
	if s.queues[queueKey{rule: s.byName["a"], class: "dd.n1"}] == nil ||
		s.queues[queueKey{rule: s.byName["b"], class: "x.n1"}] == nil {
		t.Fatal("requests not classified to first matching rule")
	}
}

func TestPerClassQueues(t *testing.T) {
	// One wildcard rule: each distinct job ID gets its own queue/bucket.
	s := NewScheduler(Config{BucketDepth: 3})
	s.StartRule(Rule{Name: "all", Match: Match{}, Rate: 10}, 0)
	for i := 0; i < 10; i++ {
		s.Enqueue(req("j1"), 0)
		s.Enqueue(req("j2"), 0)
	}
	got := drain(s, 0)
	// Each job's bucket holds 3 tokens: 6 total, not 3.
	if len(got) != 6 {
		t.Fatalf("served %d at t=0, want 6 (per-class buckets)", len(got))
	}
}

func TestStartRuleReclassifiesBacklog(t *testing.T) {
	s := NewScheduler(Config{})
	for i := 0; i < 50; i++ {
		s.Enqueue(req("noisy"), 0)
	}
	if err := s.StartRule(Rule{Name: "cap", Match: Match{JobIDs: []string{"noisy"}}, Rate: 10}, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(drain(s, 0)); got != 3 {
		t.Fatalf("after StartRule, served %d at t=0, want 3 (backlog now regulated)", got)
	}
}

func TestStopRuleMovesBacklogToFallback(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "cap", Match: Match{JobIDs: []string{"j"}}, Rate: 1}, 0)
	for i := 0; i < 10; i++ {
		s.Enqueue(req("j"), 0)
	}
	drain(s, 0)
	if err := s.StopRule("cap", 0); err != nil {
		t.Fatal(err)
	}
	if got := len(drain(s, 0)); got != 7 {
		t.Fatalf("after StopRule, served %d, want 7 (unregulated backlog)", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", s.Pending())
	}
}

func TestChangeRuleTakesEffect(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"j"}}, Rate: 1}, 0)
	for i := 0; i < 200; i++ {
		s.Enqueue(req("j"), 0)
	}
	drain(s, 0)
	if err := s.ChangeRule("r", 100, 5, 0); err != nil {
		t.Fatal(err)
	}
	served := 0
	for now := int64(0); now <= second; now += second / 1000 {
		served += len(drain(s, now))
	}
	if served < 95 || served > 105 {
		t.Fatalf("served %d in 1s after rate change to 100, want ~100", served)
	}
	r, _ := s.RuleByName("r")
	if r.Order != 5 || r.Rate != 100 {
		t.Fatalf("rule after change = %+v", r)
	}
}

func TestRuleOpErrors(t *testing.T) {
	s := NewScheduler(Config{})
	if err := s.StartRule(Rule{Name: "r", Rate: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.StartRule(Rule{Name: "r", Rate: 2}, 0); err == nil {
		t.Error("duplicate StartRule accepted")
	}
	if err := s.ChangeRule("missing", 1, 0, 0); err == nil {
		t.Error("ChangeRule on missing rule accepted")
	}
	if err := s.ChangeRule("r", -1, 0, 0); err == nil {
		t.Error("ChangeRule with negative rate accepted")
	}
	if err := s.StopRule("missing", 0); err == nil {
		t.Error("StopRule on missing rule accepted")
	}
	if err := s.StartRule(Rule{Name: "bad", Rate: -3}, 0); err == nil {
		t.Error("StartRule with negative rate accepted")
	}
}

func TestPendingForJob(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"a"}}, Rate: 1}, 0)
	for i := 0; i < 4; i++ {
		s.Enqueue(req("a"), 0)
	}
	for i := 0; i < 2; i++ {
		s.Enqueue(req("b"), 0) // fallback
	}
	if got := s.PendingForJob("a"); got != 4 {
		t.Errorf("PendingForJob(a) = %d, want 4", got)
	}
	if got := s.PendingForJob("b"); got != 2 {
		t.Errorf("PendingForJob(b) = %d, want 2", got)
	}
	if got := s.Pending(); got != 6 {
		t.Errorf("Pending = %d, want 6", got)
	}
}

func TestFCFSWithinQueue(t *testing.T) {
	s := NewScheduler(Config{BucketDepth: 100})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"j"}}, Rate: 1000}, 0)
	var want []int
	for i := 0; i < 50; i++ {
		r := req("j")
		r.Stream = i
		want = append(want, i)
		s.Enqueue(r, 0)
	}
	got := drain(s, 0)
	for i, r := range got {
		if r.Stream != want[i] {
			t.Fatalf("FCFS violated at %d: got stream %d", i, r.Stream)
		}
	}
}

// TestRateEnforcementLongRun drives two competing queues for a simulated
// ten seconds and verifies each is held to its configured rate within the
// burst tolerance.
func TestRateEnforcementLongRun(t *testing.T) {
	s := NewScheduler(Config{BucketDepth: 3})
	s.StartRule(Rule{Name: "fast", Match: Match{JobIDs: []string{"fast"}}, Rate: 200}, 0)
	s.StartRule(Rule{Name: "slow", Match: Match{JobIDs: []string{"slow"}}, Rate: 50}, 0)
	counts := map[string]int{}
	step := second / 2000 // 0.5ms polling
	for now := int64(0); now < 10*second; now += step {
		// Keep both queues backlogged.
		if s.PendingForJob("fast") < 5 {
			s.Enqueue(req("fast"), now)
		}
		if s.PendingForJob("slow") < 5 {
			s.Enqueue(req("slow"), now)
		}
		for _, r := range drain(s, now) {
			counts[r.JobID]++
		}
	}
	if f := counts["fast"]; f < 1990 || f > 2010 {
		t.Errorf("fast served %d in 10s at 200/s, want ~2000", f)
	}
	if sl := counts["slow"]; sl < 490 || sl > 510 {
		t.Errorf("slow served %d in 10s at 50/s, want ~500", sl)
	}
}

// TestSchedulerDeterminism feeds an identical random workload to two
// schedulers and requires identical service order.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() []uint64 {
		rng := rand.New(rand.NewSource(42))
		s := NewScheduler(Config{})
		s.StartRule(Rule{Name: "a", Match: Match{JobIDs: []string{"a"}}, Rate: 120}, 0)
		s.StartRule(Rule{Name: "b", Match: Match{JobIDs: []string{"b"}}, Rate: 80}, 0)
		var order []uint64
		now := int64(0)
		for i := 0; i < 2000; i++ {
			now += int64(rng.Intn(1e6))
			job := "a"
			if rng.Intn(2) == 0 {
				job = "b"
			}
			s.Enqueue(req(job), now)
			for _, r := range drain(s, now) {
				order = append(order, r.seq)
			}
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("service order diverges at %d", i)
		}
	}
}

// TestNoRequestLostAcrossRuleChurn hammers rule start/stop/change while
// enqueuing and verifies conservation: everything enqueued is eventually
// served exactly once.
func TestNoRequestLostAcrossRuleChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScheduler(Config{})
	jobs := []string{"j0", "j1", "j2", "j3"}
	enqueued, served := 0, 0
	seen := map[uint64]bool{}
	now := int64(0)
	for i := 0; i < 5000; i++ {
		now += int64(rng.Intn(2e6))
		switch rng.Intn(10) {
		case 0:
			name := fmt.Sprintf("r%d", rng.Intn(4))
			if _, ok := s.RuleByName(name); !ok {
				s.StartRule(Rule{Name: name, Match: Match{JobIDs: []string{jobs[rng.Intn(4)]}}, Rate: float64(10 + rng.Intn(200)), Order: rng.Intn(5)}, now)
			}
		case 1:
			name := fmt.Sprintf("r%d", rng.Intn(4))
			if _, ok := s.RuleByName(name); ok {
				s.StopRule(name, now)
			}
		case 2:
			name := fmt.Sprintf("r%d", rng.Intn(4))
			if _, ok := s.RuleByName(name); ok {
				s.ChangeRule(name, float64(10+rng.Intn(200)), rng.Intn(5), now)
			}
		default:
			s.Enqueue(req(jobs[rng.Intn(4)]), now)
			enqueued++
		}
		for _, r := range drain(s, now) {
			if seen[r.seq] {
				t.Fatalf("request %d served twice", r.seq)
			}
			seen[r.seq] = true
			served++
		}
	}
	// Drain the remainder with time marching forward.
	for s.Pending() > 0 {
		r, wake, ok := s.Dequeue(now)
		if ok {
			if seen[r.seq] {
				t.Fatalf("request %d served twice", r.seq)
			}
			seen[r.seq] = true
			served++
			continue
		}
		if wake == InfiniteDeadline {
			t.Fatalf("pending %d but scheduler reports idle forever", s.Pending())
		}
		now = wake
	}
	if served != enqueued {
		t.Fatalf("served %d != enqueued %d", served, enqueued)
	}
}

// interned returns a request carrying its caller-interned job index, as
// the simulator issues them once SetJobCount is in effect.
func interned(jobID string, job int32) *Request {
	return &Request{JobID: jobID, Job: job, Bytes: 1 << 20}
}

// TestRouteCacheMatchesStringPath: with the interned fast path enabled,
// classification decisions are identical to the wildcard string path.
func TestRouteCacheMatchesStringPath(t *testing.T) {
	jobs := []string{"dd.n1", "dd.n2", "cp.n1", "x.n9"}
	mk := func(intern bool) []string {
		s := NewScheduler(Config{})
		if intern {
			s.SetJobCount(len(jobs))
		}
		s.StartRule(Rule{Name: "dd", Match: Match{JobIDs: []string{"dd.*"}}, Rate: 1e9, Order: 1}, 0)
		s.StartRule(Rule{Name: "cp", Match: Match{JobIDs: []string{"cp.*"}}, Rate: 1e9, Order: 2}, 0)
		var served []string
		for round := 0; round < 3; round++ {
			for i, id := range jobs {
				req := &Request{JobID: id, Bytes: 1 << 20}
				if intern {
					req.Job = int32(i)
				}
				s.Enqueue(req, int64(round))
			}
			if round == 1 { // invalidate the cache mid-stream
				s.ChangeRule("dd", 5e8, 3, int64(round))
			}
			for {
				r, _, ok := s.Dequeue(int64(round))
				if !ok {
					break
				}
				served = append(served, r.JobID)
			}
		}
		return served
	}
	plain, cached := mk(false), mk(true)
	if len(plain) != len(cached) {
		t.Fatalf("served %d vs %d requests", len(plain), len(cached))
	}
	for i := range plain {
		if plain[i] != cached[i] {
			t.Fatalf("service order diverges at %d: %q vs %q", i, plain[i], cached[i])
		}
	}
}

// TestRouteCacheInvalidatedByRuleChurn: a started/stopped rule must
// re-route interned requests immediately.
func TestRouteCacheInvalidatedByRuleChurn(t *testing.T) {
	s := NewScheduler(Config{})
	s.SetJobCount(1)
	s.Enqueue(interned("dd.n1", 0), 0)
	if _, _, ok := s.Dequeue(0); !ok {
		t.Fatal("fallback dequeue failed")
	}
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"dd.n1"}}, Rate: 50, Order: 1}, 0)
	s.Enqueue(interned("dd.n1", 0), 0)
	if s.PendingForJob("dd.n1") != 1 || s.fallbackPending() != 0 {
		t.Fatal("interned request did not route to the new rule")
	}
	if err := s.StopRule("r", 0); err != nil {
		t.Fatal(err)
	}
	if s.fallbackPending() != 1 {
		t.Fatal("stopping the rule did not return the request to fallback")
	}
	s.Enqueue(interned("dd.n1", 0), 0)
	if s.fallbackPending() != 2 {
		t.Fatal("post-stop interned request used a stale cache entry")
	}
}

func TestPendingJobsInto(t *testing.T) {
	s := NewScheduler(Config{})
	s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"a.h"}}, Rate: 1, Order: 1}, 0)
	for i := 0; i < 3; i++ {
		s.Enqueue(&Request{JobID: "a.h", Bytes: 1}, 0)
	}
	s.Enqueue(&Request{JobID: "b.h", Bytes: 1}, 0)
	buf := map[string]int{"stale": 9}
	clear(buf)
	s.PendingJobsInto(buf)
	if len(buf) != 2 || buf["a.h"] != 3 || buf["b.h"] != 1 {
		t.Fatalf("PendingJobsInto = %v", buf)
	}
	if got := s.PendingJobs(); got["a.h"] != 3 || got["b.h"] != 1 {
		t.Fatalf("PendingJobs = %v", got)
	}
}

// TestQueueRecyclingKeepsBucketSemantics: a queue recreated after rule
// churn must start with a full bucket, exactly like a fresh one.
func TestQueueRecyclingKeepsBucketSemantics(t *testing.T) {
	s := NewScheduler(Config{BucketDepth: 3})
	for round := 0; round < 4; round++ {
		now := int64(round * 1e9)
		s.StartRule(Rule{Name: "r", Match: Match{JobIDs: []string{"j.h"}}, Rate: 1, Order: 1}, now)
		for i := 0; i < 5; i++ {
			s.Enqueue(&Request{JobID: "j.h", Bytes: 1}, now)
		}
		served := 0
		for {
			if _, _, ok := s.Dequeue(now); !ok {
				break
			}
			served++
		}
		// Fresh full bucket of depth 3 every round, rate too low for more.
		if served != 3 {
			t.Fatalf("round %d: served %d at t=now, want 3 (full fresh bucket)", round, served)
		}
		if err := s.StopRule("r", now); err != nil {
			t.Fatal(err)
		}
		for { // drain the reclassified fallback backlog
			if _, _, ok := s.Dequeue(now); !ok {
				break
			}
		}
	}
}

// ruleNames lists the active rules in match order.
func ruleNames(s *Scheduler) []string {
	var names []string
	for _, r := range s.AppendRules(nil) {
		names = append(names, r.Name)
	}
	return names
}

// TestChangeRuleReroutesOnlyWhenTheRuleMoves: a rate change, or an order
// change that keeps the rule between its neighbours, leaves the rule
// sequence, every cached route and the cache version alone; an order
// change that moves the rule past a neighbour re-routes.
func TestChangeRuleReroutesOnlyWhenTheRuleMoves(t *testing.T) {
	s := NewScheduler(Config{})
	s.SetJobCount(1)
	s.StartRule(Rule{Name: "dd", Match: Match{JobIDs: []string{"dd.*"}}, Rate: 10, Order: 10}, 0)
	s.StartRule(Rule{Name: "all", Match: Match{JobIDs: []string{"*"}}, Rate: 10, Order: 20}, 0)
	s.StartRule(Rule{Name: "zz", Match: Match{JobIDs: []string{"zz.*"}}, Rate: 10, Order: 30}, 0)
	s.Enqueue(interned("dd.n1", 0), 0)
	ddQueue := s.cache[OpAny][0].q
	if ddQueue == nil || ddQueue.rule.Name != "dd" {
		t.Fatal("premise: dd.n1 should be cached under rule dd")
	}
	version := s.version

	for _, change := range []struct {
		rate  float64
		order int
	}{{75, 20}, {75, 25}, {60, 11}} {
		if err := s.ChangeRule("all", change.rate, change.order, 1); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ruleNames(s)); got != "[dd all zz]" {
			t.Fatalf("change to %+v reordered the rules: %s", change, got)
		}
		if s.version != version {
			t.Fatalf("change to %+v invalidated the route cache", change)
		}
		if r, _ := s.RuleByName("all"); r.Rate != change.rate || r.Order != change.order {
			t.Fatalf("change to %+v not applied: %+v", change, r)
		}
	}
	s.Enqueue(interned("dd.n1", 0), 1)
	if e := s.cache[OpAny][0]; e.q != ddQueue || ddQueue.pending() != 2 {
		t.Fatal("a change that moved no rule re-routed dd.n1")
	}

	// Rule all now sorts before rule dd and claims dd.n1's next request.
	if err := s.ChangeRule("all", 60, 5, 2); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ruleNames(s)); got != "[all dd zz]" {
		t.Fatalf("rules after the move: %s", got)
	}
	if s.version == version {
		t.Fatal("moving a rule left the route cache valid")
	}
	s.Enqueue(interned("dd.n1", 0), 2)
	if q := s.cache[OpAny][0].q; q == nil || q.rule.Name != "all" || q.pending() != 1 {
		t.Fatal("dd.n1 not routed to the rule that now matches first")
	}
}

// TestRuleListStaysSorted: whatever sequence of starts, order changes and
// stops, the rule list equals the (Order, Name) sort of the live rules —
// the invariant ChangeRule's single reposition relies on.
func TestRuleListStaysSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScheduler(Config{})
	live := map[string]int{} // name → order
	for step := 0; step < 3000; step++ {
		name := fmt.Sprintf("r%02d", rng.Intn(40))
		order := rng.Intn(12) // few distinct orders: ties fall to the name
		_, exists := live[name]
		switch {
		case !exists:
			if err := s.StartRule(Rule{Name: name, Rate: 1, Order: order}, 0); err != nil {
				t.Fatal(err)
			}
			live[name] = order
		case rng.Intn(4) == 0:
			if err := s.StopRule(name, 0); err != nil {
				t.Fatal(err)
			}
			delete(live, name)
		default:
			if err := s.ChangeRule(name, 1, order, 0); err != nil {
				t.Fatal(err)
			}
			live[name] = order
		}
		got := s.AppendRules(nil)
		if len(got) != len(live) {
			t.Fatalf("step %d: %d rules listed, %d live", step, len(got), len(live))
		}
		for i, r := range got {
			if live[r.Name] != r.Order {
				t.Fatalf("step %d: rule %s has order %d, want %d", step, r.Name, r.Order, live[r.Name])
			}
			if i > 0 && (got[i-1].Order > r.Order || (got[i-1].Order == r.Order && got[i-1].Name >= r.Name)) {
				t.Fatalf("step %d: rules out of order at %d: %v", step, i, ruleNames(s))
			}
		}
	}
}

// TestChangeRuleDoesNotAllocate: the controller changes every active
// job's rule every period, so a change — here with the rule's queue
// loaded, which re-arms its deadline in the heap — must stay off the heap.
func TestChangeRuleDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := NewScheduler(Config{})
	for i := 0; i < 8; i++ {
		job := fmt.Sprintf("j%d", i)
		s.StartRule(Rule{Name: "r" + job, Match: Match{JobIDs: []string{job}}, Rate: 10, Order: i}, 0)
		s.Enqueue(req(job), 0)
		s.Enqueue(req(job), 0)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		// Rate changes every call; the order change swaps r3 and r4 back and forth.
		if err := s.ChangeRule("rj3", 10+float64(i%7), 3+2*(i%2), int64(i)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ChangeRule allocates %.1f times per call", n)
	}
}
