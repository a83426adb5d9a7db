// Package rules implements the AdapTBF Rule Management Daemon (§III-D).
//
// After each allocation round the daemon reconciles the live TBF rules on a
// storage target with the allocator's decisions: it creates rules for newly
// active jobs, changes the token rate of jobs whose allocation moved, stops
// rules of jobs that went inactive, and orders the rules by job priority so
// that idle I/O capacity prefers high-priority queues. Jobs without rules
// never starve: the TBF scheduler serves unmatched requests from its
// fallback queue.
package rules

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"adaptbf/internal/core"
	"adaptbf/internal/tbf"
)

// An Engine is the slice of the TBF scheduler the daemon drives.
// *tbf.Scheduler implements it; the real-time OSS wraps it with a lock.
type Engine interface {
	// AppendRules appends the active rules to dst and returns the
	// extended slice.
	AppendRules(dst []tbf.Rule) []tbf.Rule
	StartRule(r tbf.Rule, now int64) error
	ChangeRule(name string, rate float64, order int, now int64) error
	StopRule(name string, now int64) error
}

var _ Engine = (*tbf.Scheduler)(nil)

// An OpKind classifies one reconciliation action.
type OpKind uint8

// Reconciliation actions.
const (
	OpStart OpKind = iota
	OpChange
	OpStop
)

// String returns the action name.
func (k OpKind) String() string {
	switch k {
	case OpStart:
		return "start"
	case OpChange:
		return "change"
	case OpStop:
		return "stop"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// An Op records one applied action, for tracing and the overhead analysis.
type Op struct {
	Kind  OpKind
	Rule  string
	Job   core.JobID
	Rate  float64
	Order int
}

// Ops summarizes one reconciliation round. Applied is the daemon's own
// buffer: it is valid until the daemon's next Apply, which overwrites it.
// Callers that keep a round's ops copy them.
type Ops struct {
	Applied  []Op
	Duration time.Duration
}

// Counts reports how many starts, changes, and stops were applied.
func (o Ops) Counts() (starts, changes, stops int) {
	for _, op := range o.Applied {
		switch op.Kind {
		case OpStart:
			starts++
		case OpChange:
			changes++
		case OpStop:
			stops++
		}
	}
	return
}

// Config parameterizes a Daemon.
type Config struct {
	// Prefix namespaces the daemon's rules so administrator-installed TBF
	// rules are never touched. Defaults to "adaptbf_".
	Prefix string
	// MinRate is the floor applied to rule rates, in tokens per second.
	// A zero-token allocation would otherwise install an unserveable
	// queue. Defaults to 1 token/s.
	MinRate float64
}

// A Daemon reconciles allocations into TBF rules on one storage target.
type Daemon struct {
	engine  Engine
	prefix  string
	minRate float64

	// Jobs the daemon holds a rule for (or wants one for) are interned to
	// slots of a dense table: one map lookup per job per pass, and the
	// memoized rule name lives with the slot. A slot is released when its
	// rule is stopped, so a long-lived daemon (the wall-clock cluster mode)
	// does not accumulate one entry per job ID ever seen.
	index map[core.JobID]int32
	jobs  []jobRule
	free  []int32
	round uint64 // stamps which slots this Apply has touched

	// ranked holds the allocated jobs' slots in priority rank order. It is
	// kept from one Apply to the next: while the same jobs come back with
	// the same priorities — the steady state — the ranking stands and no
	// sort runs.
	ranked []int32

	// Per-Apply scratch, reused every observation period so the periodic
	// reconciliation allocates nothing in steady state.
	allocated []int32 // this round's slots, in allocation order
	live      []tbf.Rule
	stale     []int32
	applied   []Op
}

// jobRule is one job's slot: its rule name, the state the current Apply
// wants for it, and the state the engine reported.
type jobRule struct {
	job  core.JobID
	name string

	wanted    uint64 // == Daemon.round when the job was allocated this round
	priority  float64
	wantRate  float64
	wantOrder int // rank among the allocated jobs, from 1

	found     uint64 // == Daemon.round when the engine holds a rule for it
	haveRate  float64
	haveOrder int
}

// New returns a Daemon driving the given engine.
func New(engine Engine, cfg Config) *Daemon {
	if engine == nil {
		panic("rules: nil engine")
	}
	prefix := cfg.Prefix
	if prefix == "" {
		prefix = "adaptbf_"
	}
	minRate := cfg.MinRate
	if minRate <= 0 {
		minRate = 1
	}
	return &Daemon{
		engine:  engine,
		prefix:  prefix,
		minRate: minRate,
		index:   make(map[core.JobID]int32),
	}
}

// RuleName returns the rule name the daemon uses for a job.
func (d *Daemon) RuleName(job core.JobID) string { return d.prefix + string(job) }

// jobOf inverts RuleName, reporting whether the rule belongs to the daemon.
func (d *Daemon) jobOf(ruleName string) (core.JobID, bool) {
	if !strings.HasPrefix(ruleName, d.prefix) {
		return "", false
	}
	return core.JobID(ruleName[len(d.prefix):]), true
}

// slotOf interns a job, taking a recycled slot when one is free.
func (d *Daemon) slotOf(job core.JobID) int32 {
	if s, ok := d.index[job]; ok {
		return s
	}
	var s int32
	if n := len(d.free); n > 0 {
		s, d.free = d.free[n-1], d.free[:n-1]
	} else {
		s = int32(len(d.jobs))
		d.jobs = append(d.jobs, jobRule{})
	}
	d.jobs[s] = jobRule{job: job, name: d.RuleName(job)}
	d.index[job] = s
	return s
}

// Apply reconciles the live rules with the allocations at time now.
// Rules are ordered by priority rank (highest priority first); ranks are
// assigned positions 1..n so that a deliberately installed order-0
// administrator rule still outranks the daemon's.
//
// Apply is not transactional: on an engine error it returns the ops applied
// so far along with the error. The next period's reconciliation converges
// to the desired state regardless, which is how the paper's prototype
// tolerates transient lctl failures.
func (d *Daemon) Apply(allocs []core.Allocation, now int64) (Ops, error) {
	start := time.Now()
	d.round++
	d.applied = d.applied[:0]
	done := func(err error) (Ops, error) {
		return Ops{Applied: d.applied, Duration: time.Since(start)}, err
	}

	// Desired state: one exact-match rule per allocated job, ordered by
	// priority rank. The ranking of the previous round stands unless a job
	// came, went or changed priority.
	stands := len(allocs) == len(d.ranked)
	allocated := d.allocated[:0]
	for i := range allocs {
		s := d.slotOf(allocs[i].Job)
		j := &d.jobs[s]
		stands = stands && j.wanted == d.round-1 && j.priority == allocs[i].Priority
		j.wanted = d.round
		j.priority = allocs[i].Priority
		j.wantRate = max(allocs[i].Rate, d.minRate)
		allocated = append(allocated, s)
	}
	d.allocated = allocated
	if !stands {
		slices.SortFunc(allocated, func(a, b int32) int {
			x, y := &d.jobs[a], &d.jobs[b]
			if x.priority != y.priority {
				return cmp.Compare(y.priority, x.priority)
			}
			return cmp.Compare(x.job, y.job)
		})
		d.ranked, d.allocated = allocated, d.ranked
		for i, s := range d.ranked {
			d.jobs[s].wantOrder = i + 1
		}
	}

	// Existing daemon-owned rules; those of jobs no longer allocated are
	// stale.
	d.live = d.engine.AppendRules(d.live[:0])
	stale := d.stale[:0]
	for i := range d.live {
		job, ok := d.jobOf(d.live[i].Name)
		if !ok {
			continue
		}
		s := d.slotOf(job)
		j := &d.jobs[s]
		j.found = d.round
		j.haveRate = d.live[i].Rate
		j.haveOrder = d.live[i].Order
		if j.wanted != d.round {
			stale = append(stale, s)
		}
	}
	d.stale = stale

	// Stop rules for inactive jobs first, freeing their names and slots.
	slices.SortFunc(stale, func(a, b int32) int { return cmp.Compare(d.jobs[a].job, d.jobs[b].job) })
	for _, s := range stale {
		j := &d.jobs[s]
		if err := d.engine.StopRule(j.name, now); err != nil {
			return done(fmt.Errorf("rules: stop %s: %w", j.name, err))
		}
		d.applied = append(d.applied, Op{Kind: OpStop, Rule: j.name, Job: j.job})
		delete(d.index, j.job)
		*j = jobRule{}
		d.free = append(d.free, s)
	}

	// Create or change rules for active jobs, highest priority first.
	for _, s := range d.ranked {
		j := &d.jobs[s]
		if j.found == d.round {
			if j.haveRate == j.wantRate && j.haveOrder == j.wantOrder {
				continue // already as desired
			}
			if err := d.engine.ChangeRule(j.name, j.wantRate, j.wantOrder, now); err != nil {
				return done(fmt.Errorf("rules: change %s: %w", j.name, err))
			}
			d.applied = append(d.applied, Op{Kind: OpChange, Rule: j.name, Job: j.job, Rate: j.wantRate, Order: j.wantOrder})
			continue
		}
		r := tbf.Rule{
			Name:  j.name,
			Match: tbf.Match{JobIDs: []string{string(j.job)}},
			Rate:  j.wantRate,
			Order: j.wantOrder,
		}
		if err := d.engine.StartRule(r, now); err != nil {
			return done(fmt.Errorf("rules: start %s: %w", j.name, err))
		}
		d.applied = append(d.applied, Op{Kind: OpStart, Rule: j.name, Job: j.job, Rate: j.wantRate, Order: j.wantOrder})
	}
	return done(nil)
}

// StopAll removes every daemon-owned rule, used at shutdown.
func (d *Daemon) StopAll(now int64) error {
	for _, r := range d.engine.AppendRules(nil) {
		if _, ok := d.jobOf(r.Name); !ok {
			continue
		}
		if err := d.engine.StopRule(r.Name, now); err != nil {
			return err
		}
	}
	return nil
}
