package experiments

import (
	"fmt"
	"time"

	"adaptbf/internal/controller"
	"adaptbf/internal/core"
	"adaptbf/internal/jobstats"
	"adaptbf/internal/rules"
	"adaptbf/internal/sim"
	"adaptbf/internal/tbf"
)

// syntheticActivities builds n active jobs with varied demands and node
// counts for overhead measurement.
func syntheticActivities(n int) []core.Activity {
	acts := make([]core.Activity, n)
	for i := range acts {
		acts[i] = core.Activity{
			Job:    core.JobID(fmt.Sprintf("job%04d.n%03d", i, i%64)),
			Nodes:  1 + i%32,
			Demand: int64(1 + (i*37)%900),
		}
	}
	return acts
}

// MeasureAllocator reports the average wall time of one full allocation
// over n active jobs — the §IV-G "time for token allocation" metric. The
// allocator is warmed for several periods first so records and remainders
// are populated, as they would be in steady state.
func MeasureAllocator(n, iterations int) time.Duration {
	if n < 1 {
		n = 1
	}
	if iterations < 1 {
		iterations = 1
	}
	a := core.New(core.Config{MaxRate: 500 * float64(max(1, n/4)), Period: 100 * time.Millisecond})
	acts := syntheticActivities(n)
	for i := 0; i < 3; i++ {
		a.Allocate(acts)
	}
	start := time.Now()
	for i := 0; i < iterations; i++ {
		// Vary demands so no iteration short-circuits.
		for j := range acts {
			acts[j].Demand = int64(1 + (i+j*53)%900)
		}
		a.Allocate(acts)
	}
	return time.Since(start) / time.Duration(iterations)
}

// A ControlCycle is one storage target's whole control loop — tracker,
// allocator, rule daemon, TBF scheduler — under synthetic load from n
// always-active jobs, for measuring what §IV-G calls the framework
// overhead: the full collect → allocate → apply rules → clear cycle, not
// the allocation alone.
type ControlCycle struct {
	tracker jobstats.Tracker
	sched   *tbf.Scheduler
	ctl     *controller.Controller
	demand  []jobstats.Stat
	backlog map[string]int
	now     int64
	round   int
}

// NewControlCycle builds the loop over n jobs and runs it into steady
// state: every job holds a rule, and every rule's queue holds requests, so
// each rate change also re-arms a queue deadline in the scheduler's heap.
func NewControlCycle(n int) (*ControlCycle, error) {
	const period = 100 * time.Millisecond
	c := &ControlCycle{
		sched:   tbf.NewScheduler(tbf.Config{}),
		demand:  make([]jobstats.Stat, n),
		backlog: make(map[string]int, n),
	}
	nodes := make(map[string]int, n)
	for i, a := range syntheticActivities(n) {
		c.demand[i].JobID = string(a.Job)
		nodes[string(a.Job)] = a.Nodes
	}
	c.ctl = controller.New(controller.Config{
		Stats:  &c.tracker,
		Nodes:  controller.NodeMapperFunc(func(id string) int { return nodes[id] }),
		Alloc:  core.New(core.Config{MaxRate: 10000 * float64(n), Period: period}),
		Daemon: rules.New(c.sched, rules.Config{}),
		Backlog: func() map[string]int {
			clear(c.backlog)
			c.sched.PendingJobsInto(c.backlog)
			return c.backlog
		},
	})
	if err := c.Step(); err != nil { // installs the rules
		return nil, err
	}
	reqs := make([]tbf.Request, 2*n)
	for i := range reqs {
		reqs[i] = tbf.Request{JobID: c.demand[i%n].JobID, Op: tbf.OpWrite, Bytes: 1 << 20}
		c.sched.Enqueue(&reqs[i], c.now)
	}
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Step runs one observation period: every job's demand for the period is
// observed (folded in with one Tracker.Merge, so the cycle is timed and
// not the per-RPC data path) and the controller ticks. Demands vary from
// period to period so that every job's rate changes every cycle.
func (c *ControlCycle) Step() error {
	c.round++
	c.now += int64(c.ctl.Period())
	for j := range c.demand {
		c.demand[j].RPCs = int64(1 + (c.round+j*53)%900)
	}
	c.tracker.Merge(c.demand)
	return c.ctl.Tick(c.now).Err
}

// MeasureCycle reports the average wall time of one whole control cycle
// over n active jobs in steady state.
func MeasureCycle(n, iterations int) (time.Duration, error) {
	c, err := NewControlCycle(max(1, n))
	if err != nil {
		return 0, err
	}
	iterations = max(1, iterations)
	start := time.Now()
	for i := 0; i < iterations; i++ {
		if err := c.Step(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iterations), nil
}

// DefaultOverheadJobCounts is the §IV-G scaling axis, up to the paper's
// quoted 1000 active jobs.
var DefaultOverheadJobCounts = []int{1, 10, 100, 1000}

// RunOverhead reproduces the §IV-G overhead analysis: allocation wall time
// and whole-cycle wall time versus active job count (expect linear
// scaling, µs-per-job cost), plus the controller's whole-cycle overhead
// measured inside a live simulation.
func RunOverhead(jobCounts []int) (*Report, error) {
	if len(jobCounts) == 0 {
		jobCounts = DefaultOverheadJobCounts
	}
	rep := &Report{ID: "overhead", Title: "Framework overhead (§IV-G)"}

	alloc := Table{Name: "overhead-allocation", Header: []string{"active jobs", "per call", "per job", "cycle", "cycle per job"}}
	for _, n := range jobCounts {
		iters := 2000 / n
		if iters < 5 {
			iters = 5
		}
		per := MeasureAllocator(n, iters)
		cycle, err := MeasureCycle(n, iters)
		if err != nil {
			return nil, err
		}
		alloc.Rows = append(alloc.Rows, []string{
			fmt.Sprintf("%d", n),
			per.String(),
			(per / time.Duration(n)).String(),
			cycle.String(),
			(cycle / time.Duration(n)).String(),
		})
	}
	rep.Tables = append(rep.Tables, alloc)

	// Whole-cycle overhead from a short live run (collect → allocate →
	// apply rules → clear).
	p := DefaultParams()
	p.Scale = 64
	res, err := sim.Run(configFor(p, JobsAllocation(p), sim.AdapTBF))
	if err != nil {
		return nil, err
	}
	var tickSum, tickMax, allocSum time.Duration
	for i, d := range res.TickTimes {
		tickSum += d
		if d > tickMax {
			tickMax = d
		}
		allocSum += res.AllocTimes[i]
	}
	cycle := Table{Name: "overhead-cycle", Header: []string{"metric", "value"}}
	if n := len(res.TickTimes); n > 0 {
		cycle.Rows = append(cycle.Rows,
			[]string{"controller cycles", fmt.Sprintf("%d", n)},
			[]string{"mean cycle time", (tickSum / time.Duration(n)).String()},
			[]string{"max cycle time", tickMax.String()},
			[]string{"mean allocation time", (allocSum / time.Duration(n)).String()},
			[]string{"rule operations", fmt.Sprintf("%d", res.RuleOps)},
			// Deterministic coordination traffic (2 per cycle + 1 per
			// rule op), the wall-clock-free twin of the cycle times.
			[]string{"controller messages", fmt.Sprintf("%d", res.CtrlMsgs)},
			[]string{"messages per cycle", fmt.Sprintf("%.1f", float64(res.CtrlMsgs)/float64(n))},
		)
	}
	rep.Tables = append(rep.Tables, cycle)
	return rep, nil
}
