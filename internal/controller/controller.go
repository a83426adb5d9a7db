// Package controller implements the AdapTBF System Stats Controller — the
// periodic loop of Figure 2 that ties the pieces together on one storage
// target:
//
//	collect job stats (1) → run the token allocation algorithm (2-4) →
//	apply rules through the daemon (5-7) → notified (8) → clear stats (9)
//
// The controller is clock-agnostic: Tick performs exactly one cycle, so the
// discrete-event simulator schedules Tick on its virtual clock while the
// real-time cluster mode drives it from a time.Ticker via Run.
package controller

import (
	"context"
	"time"

	"adaptbf/internal/core"
	"adaptbf/internal/jobstats"
	"adaptbf/internal/rules"
)

// A StatsSource yields the per-job activity of the observation period that
// just ended. *jobstats.Tracker implements it.
type StatsSource interface {
	// Drain appends the ended period's activity to dst and starts the next
	// period empty, in one step.
	Drain(dst []jobstats.Stat) []jobstats.Stat
	// Merge returns drained activity to the current period.
	Merge(stats []jobstats.Stat)
}

var _ StatsSource = (*jobstats.Tracker)(nil)

// A NodeMapper reports the number of compute nodes allocated to a job —
// the scheduler-provided knowledge the paper assumes (priorities are set
// from job resource allocations, §IV-D). Unknown jobs should return 1.
type NodeMapper interface {
	Nodes(jobID string) int
}

// NodeMapperFunc adapts a function to the NodeMapper interface.
type NodeMapperFunc func(jobID string) int

// Nodes calls f.
func (f NodeMapperFunc) Nodes(jobID string) int { return f(jobID) }

// A TickReport describes one completed control cycle; it feeds the paper's
// §IV-G overhead analysis and the Figure 7 record timelines.
//
// Allocations and Ops.Applied are buffers the allocator and the rule daemon
// reuse: they are valid until the controller's next Tick, which overwrites
// them. An OnTick observer or Tick caller that keeps them copies them.
type TickReport struct {
	Now         int64             // scheduler time the cycle ran at
	Active      int               // number of active jobs observed
	Allocations []core.Allocation // the algorithm's decisions
	Ops         rules.Ops         // rule reconciliation actions
	AllocTime   time.Duration     // wall time spent in the allocation algorithm
	TotalTime   time.Duration     // wall time for the whole cycle
	Err         error             // first error from the rule daemon, if any
}

// Config assembles a Controller.
type Config struct {
	Stats  StatsSource
	Nodes  NodeMapper
	Alloc  *core.Allocator
	Daemon *rules.Daemon
	// OnTick, if non-nil, observes every completed cycle (the simulator
	// uses it to sample records and allocations).
	OnTick func(TickReport)
	// Clock, if non-nil, supplies the scheduler time passed to Tick by
	// Run. The real-time OSS shares its epoch this way so controller rule
	// updates and request timestamps agree. Defaults to nanoseconds since
	// Run started.
	Clock func() int64
	// TickEvery, if positive, overrides the wall-clock interval Run uses
	// between cycles. The default is the allocator's Period; an
	// accelerated deployment (cluster.OSSConfig.Speedup) ticks faster in
	// wall time so the logical period still matches Δt.
	TickEvery time.Duration
	// Backlog, if non-nil, reports each job's requests still queued at
	// the request scheduler. Queued RPCs are outstanding demand the job
	// already presented to the server: folding them in keeps a draining
	// job's rule alive until its backlog clears, where the paper's
	// issued-RPCs-only definition would strand the backlog in the
	// unregulated fallback queue behind a fully-subscribed token pool
	// (see DESIGN.md §3).
	Backlog func() map[string]int
}

// A Controller runs the periodic AdapTBF cycle for one storage target.
type Controller struct {
	cfg Config

	// Per-Tick buffers, reused so a steady-state cycle allocates nothing.
	stats      []jobstats.Stat
	activities []core.Activity
}

// New returns a Controller. All of Stats, Nodes, Alloc, and Daemon are
// required.
func New(cfg Config) *Controller {
	if cfg.Stats == nil || cfg.Nodes == nil || cfg.Alloc == nil || cfg.Daemon == nil {
		panic("controller: Stats, Nodes, Alloc, and Daemon are all required")
	}
	return &Controller{cfg: cfg}
}

// Period reports the allocator's observation period Δt.
func (c *Controller) Period() time.Duration { return c.cfg.Alloc.Period() }

// Tick runs one full control cycle at scheduler time now and returns its
// report. The period's stats are drained up front — ending the observation
// period in one step, so RPCs observed while the cycle runs count toward
// the next period instead of being cleared uncounted — and merged back if
// the rule engine fails, so no observation is lost: the next cycle sees
// the accumulated demand (steps (8)-(9) of the paper's workflow).
func (c *Controller) Tick(now int64) TickReport {
	start := time.Now()
	rep := TickReport{Now: now}

	c.stats = c.cfg.Stats.Drain(c.stats[:0])
	activities := c.activities[:0]
	for _, s := range c.stats {
		activities = append(activities, core.Activity{
			Job:    core.JobID(s.JobID),
			Nodes:  c.cfg.Nodes.Nodes(s.JobID),
			Demand: s.RPCs,
		})
	}
	if c.cfg.Backlog != nil {
		pending := c.cfg.Backlog()
		for i := range activities {
			if n, ok := pending[string(activities[i].Job)]; ok {
				if int64(n) > activities[i].Demand {
					activities[i].Demand = int64(n)
				}
				delete(pending, string(activities[i].Job))
			}
		}
		// Jobs with queued requests but no new arrivals stay active.
		for job, n := range pending {
			activities = append(activities, core.Activity{
				Job:    core.JobID(job),
				Nodes:  c.cfg.Nodes.Nodes(job),
				Demand: int64(n),
			})
		}
	}
	c.activities = activities
	rep.Active = len(activities)

	allocStart := time.Now()
	rep.Allocations = c.cfg.Alloc.Allocate(activities)
	rep.AllocTime = time.Since(allocStart)

	ops, err := c.cfg.Daemon.Apply(rep.Allocations, now)
	rep.Ops = ops
	rep.Err = err
	if err != nil {
		c.cfg.Stats.Merge(c.stats)
	}

	rep.TotalTime = time.Since(start)
	if c.cfg.OnTick != nil {
		c.cfg.OnTick(rep)
	}
	return rep
}

// Run drives Tick from the wall clock every Period until the context is
// cancelled, for the real-time cluster mode. The scheduler time passed to
// Tick comes from Config.Clock, or nanoseconds since Run started.
func (c *Controller) Run(ctx context.Context) {
	clock := c.cfg.Clock
	if clock == nil {
		epoch := time.Now()
		clock = func() int64 { return time.Since(epoch).Nanoseconds() }
	}
	every := c.cfg.TickEvery
	if every <= 0 {
		every = c.Period()
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.Tick(clock())
		}
	}
}
