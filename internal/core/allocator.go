// Package core implements the AdapTBF token allocation algorithm — the
// paper's primary contribution (§III-C).
//
// Once per observation period Δt, and independently on every storage
// target, the algorithm turns the set of active jobs (those that issued
// RPCs during the period) into integer token allocations for the next
// period. It runs three sequential steps:
//
//  1. Priority-based initial allocation (Eq. 1-2): each active job receives
//     tokens proportional to its share of allocated compute nodes.
//  2. Redistribution of surplus tokens (Eq. 3-8): tokens a job is unlikely
//     to use (allocation above observed demand) are lent to jobs ranked by
//     a distribution factor combining utilization and priority. Lending
//     and borrowing are written to per-job records.
//  3. Re-compensation for borrowed tokens (Eq. 9-20): jobs with positive
//     records (net lenders) reclaim tokens from jobs with negative records
//     (net borrowers), bounded by the borrowers' debt, restoring long-term
//     fairness.
//
// Fractional tokens are handled with per-job carried remainders and the
// largest-remainder method (Eq. 21-25) so that each step's integer total
// exactly matches its real-valued total and no token is ever leaked or
// minted.
//
// Notation (paper Table I): S_i storage target; T_i max token rate of S_i;
// Δt observation period; J the active jobs; n_x nodes of job x; p_x
// priority; r_x record; d_x observed demand (RPCs); u_x utilization score;
// α_x allocated tokens; ρ_x remainder.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// A JobID identifies a job on a storage target (the paper uses Lustre's
// jobid, configured as %e.%H).
type JobID string

// An Activity reports one active job's observed state during the
// observation period that just ended.
type Activity struct {
	Job JobID
	// Nodes is the number of compute nodes allocated to the job (n_x).
	// Values below 1 are treated as 1.
	Nodes int
	// Demand is the number of RPCs the job issued to this storage target
	// during the period (d_x). 1 RPC = 1 token. Negative values are
	// treated as 0.
	Demand int64
}

// An Allocation is the algorithm's decision for one job, with every
// intermediate quantity exposed for tracing, testing, and the paper's
// Figure 7 record timelines.
type Allocation struct {
	Job      JobID
	Priority float64 // p_x
	Demand   int64   // d_x, echoed from the input Activity

	Utilization       float64 // u_x  = d_x / α^{t-1}_x
	FutureUtilization float64 // ū^{t+Δt}_x (only meaningful for lenders)

	Initial             int64   // α_x after step 1
	AfterRedistribution int64   // α_x,RD after step 2
	Tokens              int64   // α_x,RC — the final allocation
	Rate                float64 // Tokens / Δt, in tokens per second

	SurplusYielded         float64 // T^x_s removed from this job in step 2
	RedistributionReceived float64 // this job's share of T_s in step 2
	ReclaimPaid            float64 // T^x_R taken from this job in step 3
	CompensationReceived   float64 // this job's share of T_R in step 3

	Record float64 // r_x after all updates this period
}

// Config parameterizes an Allocator.
type Config struct {
	// MaxRate is T_i, the storage target's maximum token rate in tokens
	// per second. Must be positive.
	MaxRate float64
	// Period is the observation period Δt. Must be positive. The paper
	// uses 100 ms (§IV-H).
	Period time.Duration
}

// A DemandEstimator predicts a job's demand for the next period,
// d̂^{t+Δt}_x, from its observed demand this period. The paper assumes
// d̂^{t+Δt} = d^t; richer estimators (the "hints" future work of §IV-E) can
// be plugged in with WithDemandEstimator.
type DemandEstimator func(job JobID, observed int64) float64

// An Option tweaks allocator behaviour; the With*/Without* constructors in
// this package are the supported options (several exist to power the
// ablation studies in the benchmark suite).
type Option func(*Allocator)

// WithoutRedistribution disables step 2. The result is priority-only
// allocation over the active set — an adaptive version of the Static BW
// baseline. Records never move, so step 3 is implicitly disabled too.
func WithoutRedistribution() Option { return func(a *Allocator) { a.noRedistribution = true } }

// WithoutRecompensation disables step 3: surplus is still lent, but
// lenders are never repaid, sacrificing long-term fairness.
func WithoutRecompensation() Option { return func(a *Allocator) { a.noRecompensation = true } }

// WithoutRemainders replaces the remainder-carrying largest-remainder
// integerization with naive flooring. Tokens leak every period; the
// conservation tests quantify how many.
func WithoutRemainders() Option { return func(a *Allocator) { a.noRemainders = true } }

// WithRecordTTL evicts the record and remainder state of jobs that have
// been inactive for the given number of consecutive periods. Zero (the
// default) keeps state forever, as the paper's prototype does.
func WithRecordTTL(periods int) Option { return func(a *Allocator) { a.recordTTL = periods } }

// WithDemandEstimator installs a custom next-period demand estimator.
func WithDemandEstimator(e DemandEstimator) Option {
	return func(a *Allocator) { a.estimate = e }
}

// An Allocator holds the per-target persistent state of the algorithm: job
// records, carried remainders, and the previous period's allocations. One
// Allocator exists per storage target; they never communicate — that is
// the paper's decentralization argument (§II-B).
//
// Allocator is not safe for concurrent use; the controller serializes
// calls.
type Allocator struct {
	maxRate float64
	period  time.Duration

	noRedistribution bool
	noRecompensation bool
	noRemainders     bool
	recordTTL        int
	estimate         DemandEstimator

	// Per-job persistent state lives in a dense table: a job is interned
	// to a slot once per period (one map lookup) and every step then
	// indexes the table. Slots of evicted jobs are recycled through free.
	index     map[JobID]int32
	state     []jobState
	free      []int32
	poolCarry float64 // fractional part of T_i·Δt carried across periods
	periodIdx int

	// Per-Allocate scratch, reused every period so that the steady-state
	// control cycle allocates nothing. Each buffer maps to one intermediate
	// of the three-step algorithm; out is what Allocate returns.
	scr struct {
		merged                  []Activity
		slot                    []int32
		out                     []Allocation
		raw, u, df              []float64
		rBefore, rRD, rFinal    []float64
		surplus, rawRD, rem     []float64
		reclaim, rawRC          []float64
		initial, afterRD, final []int64
		plus, minus             []bool
		order                   []remOrder
	}
}

// jobState is one job's persistent state.
type jobState struct {
	record     float64 // r_x: >0 lent, <0 borrowed
	remainder  float64 // ρ_x carried across steps and periods
	prevAlloc  int64   // α^{t-1}_x (final tokens of previous period)
	lastActive int     // period index of last activity, for TTL
}

// remOrder is one entry of the largest-remainder pick order.
type remOrder struct {
	rem float64
	idx int
}

// pickOrder orders entries as the naive largest-remainder scan picks them:
// the larger remainder first, the lower index on ties (remainders are never
// NaN, so plain comparisons do).
func pickOrder(x, y remOrder) int {
	switch {
	case x.rem > y.rem:
		return -1
	case x.rem < y.rem:
		return 1
	}
	return x.idx - y.idx
}

// selectFirst reorders s so that its first k entries are the k picked
// first, in no particular sequence (quickselect with a median-of-three
// pivot: linear time on average).
func selectFirst(s []remOrder, k int) {
	// Everything in s[:lo] is picked before everything in s[lo:hi], which
	// is picked before everything in s[hi:]; the boundary k lies in between.
	for lo, hi := 0, len(s); hi-lo > 1; {
		mid, last := lo+(hi-lo)/2, hi-1
		if pickOrder(s[mid], s[lo]) < 0 {
			s[lo], s[mid] = s[mid], s[lo]
		}
		if pickOrder(s[last], s[lo]) < 0 {
			s[lo], s[last] = s[last], s[lo]
		}
		if pickOrder(s[mid], s[last]) < 0 {
			s[mid], s[last] = s[last], s[mid]
		}
		pivot, i := s[last], lo // the median of the three, parked at last
		for j := lo; j < last; j++ {
			if pickOrder(s[j], pivot) < 0 {
				s[i], s[j] = s[j], s[i]
				i++
			}
		}
		s[i], s[last] = s[last], s[i]
		switch {
		case k < i:
			hi = i
		case k > i+1:
			lo = i + 1
		default:
			return
		}
	}
}

// sbuf resizes a scratch buffer to n zeroed entries, reusing capacity.
func sbuf[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// New returns an Allocator for one storage target. It panics if the
// configuration is invalid, since that is always a programming error.
func New(cfg Config, opts ...Option) *Allocator {
	if cfg.MaxRate <= 0 {
		panic(fmt.Sprintf("core: non-positive MaxRate %v", cfg.MaxRate))
	}
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("core: non-positive Period %v", cfg.Period))
	}
	a := &Allocator{
		maxRate: cfg.MaxRate,
		period:  cfg.Period,
		index:   make(map[JobID]int32),
	}
	for _, o := range opts {
		o(a)
	}
	if a.estimate == nil {
		a.estimate = func(_ JobID, observed int64) float64 { return float64(observed) }
	}
	return a
}

// MaxRate reports T_i in tokens per second.
func (a *Allocator) MaxRate() float64 { return a.maxRate }

// Period reports Δt.
func (a *Allocator) Period() time.Duration { return a.period }

// TokensPerPeriod reports T_i·Δt, the (real-valued) token pool distributed
// each period.
func (a *Allocator) TokensPerPeriod() float64 {
	return a.maxRate * a.period.Seconds()
}

// RecordOf reports job x's current record r_x: positive means tokens lent,
// negative means tokens borrowed.
func (a *Allocator) RecordOf(job JobID) float64 {
	if s, ok := a.index[job]; ok {
		return a.state[s].record
	}
	return 0
}

// Records returns a copy of all job records.
func (a *Allocator) Records() map[JobID]float64 {
	out := make(map[JobID]float64, len(a.index))
	for job, s := range a.index {
		out[job] = a.state[s].record
	}
	return out
}

// Reset discards all persistent state (records, remainders, previous
// allocations), returning the allocator to its initial condition.
func (a *Allocator) Reset() {
	clear(a.index)
	a.state = a.state[:0]
	a.free = a.free[:0]
	a.poolCarry = 0
	a.periodIdx = 0
}

// slotOf interns a job, taking a recycled slot when one is free.
func (a *Allocator) slotOf(job JobID) int32 {
	if s, ok := a.index[job]; ok {
		return s
	}
	var s int32
	if n := len(a.free); n > 0 {
		s, a.free = a.free[n-1], a.free[:n-1]
		a.state[s] = jobState{}
	} else {
		s = int32(len(a.state))
		a.state = append(a.state, jobState{})
	}
	a.index[job] = s
	return s
}

// Allocate runs the three-step algorithm over the active jobs of the
// period that just ended and returns one Allocation per job, sorted by
// JobID. Jobs appearing more than once have their demands summed (the
// first entry's Nodes wins). An empty active set returns nil and leaves
// records untouched: with nobody to lend to or borrow from, there is
// nothing to decide.
//
// The returned slice is the allocator's own buffer: it is valid until the
// next call to Allocate, which overwrites it. Callers that keep a period's
// allocations copy them.
func (a *Allocator) Allocate(active []Activity) []Allocation {
	a.periodIdx++
	a.evictExpired()
	if len(active) == 0 {
		// Nothing to decide. Records, remainders, and last-known
		// allocations are kept: bursty jobs returning from idle are judged
		// against their last allocation, not treated as brand new (see
		// DESIGN.md §3).
		return nil
	}

	jobs := a.mergeActivities(active)
	n := len(jobs)
	slot := sbuf(&a.scr.slot, n)
	for i := range jobs {
		slot[i] = a.slotOf(jobs[i].Job)
		a.state[slot[i]].lastActive = a.periodIdx
	}

	// --- Step 1: priority-based initial allocation (Eq. 1-2). ---
	totalNodes := 0
	for _, j := range jobs {
		totalNodes += j.Nodes
	}
	pool := a.TokensPerPeriod() + a.poolCarry
	target := int64(math.Floor(pool))
	a.poolCarry = pool - float64(target)

	out := sbuf(&a.scr.out, n)
	raw := sbuf(&a.scr.raw, n)
	for i, j := range jobs {
		p := float64(j.Nodes) / float64(totalNodes)
		out[i] = Allocation{Job: j.Job, Priority: p, Demand: j.Demand}
		raw[i] = float64(target) * p
	}
	initial := a.integerize(sbuf(&a.scr.initial, n), slot, raw, target)
	for i := range out {
		out[i].Initial = initial[i]
	}

	// --- Step 2: redistribution of surplus tokens (Eq. 3-8). ---
	// Utilization u_x = d_x / α^{t-1}_x, with max(1, ·) guarding the first
	// active period of a job (see DESIGN.md §3).
	u := sbuf(&a.scr.u, n)
	df := sbuf(&a.scr.df, n)
	var sumDF float64
	for i, j := range jobs {
		prev := a.state[slot[i]].prevAlloc
		u[i] = float64(j.Demand) / math.Max(1, float64(prev))
		out[i].Utilization = u[i]
		if u[i] > 1 {
			df[i] = u[i] + u[i]*out[i].Priority
		} else {
			df[i] = u[i] * out[i].Priority
		}
		sumDF += df[i]
	}

	rBefore := sbuf(&a.scr.rBefore, n) // r^t_x
	rRD := sbuf(&a.scr.rRD, n)         // r^t_{x,RD}
	for i := range jobs {
		rBefore[i] = a.state[slot[i]].record
		rRD[i] = rBefore[i]
	}

	afterRD := append(a.scr.afterRD[:0], initial...)
	a.scr.afterRD = afterRD
	if !a.noRedistribution {
		var totalSurplus float64
		surplus := sbuf(&a.scr.surplus, n)
		for i, j := range jobs {
			if s := float64(initial[i]) - float64(j.Demand); s > 0 {
				surplus[i] = s
				totalSurplus += s
			}
		}
		if totalSurplus > 0 && sumDF > 0 {
			rawRD := sbuf(&a.scr.rawRD, n)
			for i := range jobs {
				share := df[i] / sumDF * totalSurplus
				rawRD[i] = float64(initial[i]) - surplus[i] + share
				out[i].SurplusYielded = surplus[i]
				out[i].RedistributionReceived = share
				rRD[i] = rBefore[i] + surplus[i] - share
			}
			afterRD = a.integerize(afterRD, slot, rawRD, target)
		}
	}
	for i := range out {
		out[i].AfterRedistribution = afterRD[i]
	}

	// --- Step 3: re-compensation for borrowed tokens (Eq. 9-20). ---
	final := append(a.scr.final[:0], afterRD...)
	a.scr.final = final
	rFinal := append(a.scr.rFinal[:0], rRD...)
	a.scr.rFinal = rFinal
	if !a.noRedistribution && !a.noRecompensation {
		a.recompensate(jobs, slot, out, u, df, rBefore, rRD, afterRD, final, rFinal, target)
	}

	// Persist state and finish. Entries of inactive jobs stay: α^{t-1} for
	// a job returning from idle is its last known allocation.
	sec := a.period.Seconds()
	for i := range jobs {
		st := &a.state[slot[i]]
		st.record = rFinal[i]
		st.prevAlloc = final[i]
		out[i].Tokens = final[i]
		out[i].Rate = float64(final[i]) / sec
		out[i].Record = rFinal[i]
	}
	return out
}

// recompensate implements Eq. 9-20 in place over final and rFinal.
func (a *Allocator) recompensate(jobs []Activity, slot []int32, out []Allocation, u, df, rBefore, rRD []float64, afterRD, final []int64, rFinal []float64, target int64) {
	n := len(jobs)
	// J₊ and J₋ membership requires the record sign to persist across the
	// redistribution step (Eq. 9-10).
	plus := sbuf(&a.scr.plus, n)
	minus := sbuf(&a.scr.minus, n)
	hasPlus, hasMinus := false, false
	for i := range jobs {
		switch {
		case rBefore[i] > 0 && rRD[i] > 0:
			plus[i] = true
			hasPlus = true
		case rBefore[i] < 0 && rRD[i] < 0:
			minus[i] = true
			hasMinus = true
		}
	}
	if !hasPlus || !hasMinus {
		return
	}

	// Reclaim coefficient (Eq. 13): one aggregate portion computed over
	// J₊, clamped to [0,1] since it scales the borrowers' allocations.
	var c float64
	var sumDFPlus float64
	for i := range jobs {
		if !plus[i] {
			continue
		}
		future := a.estimate(jobs[i].Job, jobs[i].Demand) / math.Max(1, float64(afterRD[i]))
		out[i].FutureUtilization = future
		c += (out[i].Priority*math.Max(1, u[i]) + math.Max(0, 1-future)) / 2
		sumDFPlus += df[i]
	}
	if c > 1 {
		c = 1
	}
	if c <= 0 || sumDFPlus <= 0 {
		return
	}

	// Reclaim from borrowers, bounded by their debt (Eq. 14-17).
	var totalReclaim float64
	reclaim := sbuf(&a.scr.reclaim, n)
	for i := range jobs {
		if !minus[i] {
			continue
		}
		reclaim[i] = math.Min(-rRD[i], c*float64(afterRD[i]))
		totalReclaim += reclaim[i]
	}
	if totalReclaim <= 0 {
		return
	}

	// Apply to allocations and records (Eq. 15-16, 18-20). The
	// recompensation factor RF equals DF (Eq. 18).
	rawRC := sbuf(&a.scr.rawRC, n)
	for i := range jobs {
		switch {
		case minus[i]:
			rawRC[i] = float64(afterRD[i]) - reclaim[i]
			out[i].ReclaimPaid = reclaim[i]
			rFinal[i] = rRD[i] + reclaim[i]
		case plus[i]:
			share := df[i] / sumDFPlus * totalReclaim
			rawRC[i] = float64(afterRD[i]) + share
			out[i].CompensationReceived = share
			rFinal[i] = rRD[i] - share
		default:
			rawRC[i] = float64(afterRD[i])
		}
	}
	a.integerize(final, slot, rawRC, target)
}

// integerize floors the raw allocations with per-job carried remainders
// (Eq. 23-25) and then enforces Σ = target with the largest-remainder
// method, exactly as §III-C4 prescribes. The result is written into out
// (len(raw) entries, every index assigned), which is also returned. slot
// holds each entry's job slot.
func (a *Allocator) integerize(out []int64, slot []int32, raw []float64, target int64) []int64 {
	n := len(raw)
	if a.noRemainders {
		for i, v := range raw {
			if v > 0 {
				out[i] = int64(math.Floor(v))
			} else {
				out[i] = 0
			}
		}
		return out
	}
	rem := sbuf(&a.scr.rem, n)
	var sum int64
	for i, v := range raw {
		x := v + a.state[slot[i]].remainder
		if x < 0 {
			x = 0
		}
		f := math.Floor(x)
		out[i] = int64(f)
		rem[i] = x - f
		sum += out[i]
	}
	// Largest-remainder correction. A naive argmax scan per unit is O(n)
	// per correction and quadratic overall — visible at the paper's 1000
	// active jobs (§IV-G expects linear scaling). The scan's picks are in
	// fact fully determined up front by the descending (remainder, then
	// lowest index) order, so the same ±1 adjustments are replayed from it,
	// and only as much of that order as the correction needs is ever built:
	//
	//   - taking (sum > target): the picked job's remainder jumps above 1
	//     and stays maximal while its tokens last, so the scan drains jobs
	//     whole in that order. The first job usually holds the whole excess,
	//     so the order is produced a few jobs at a time — select the next
	//     batch, sort just it — doubling the batch while excess remains;
	//   - giving (sum < target by k): a picked remainder drops below 0
	//     while untouched ones stay strictly within [0, 1), so the scan's
	//     first n picks take one job each, the k that sort first. Which k
	//     matters, their sequence does not — one selection, no sort. The
	//     (degenerate) deficit beyond one full round keeps the naive scan.
	//
	// The per-unit rem updates are kept as repeated ±1 float operations, so
	// the carried remainders stay bit-for-bit identical to the naive
	// loop's.
	if sum != target {
		order := a.scr.order[:0]
		for i := 0; i < n; i++ {
			order = append(order, remOrder{rem: rem[i], idx: i})
		}
		a.scr.order = order
	}
	if sum > target {
		for done, batch := 0, 4; sum > target && done < n; done, batch = batch, 2*batch {
			batch = min(batch, n)
			next := a.scr.order[done:]
			selectFirst(next, batch-done)
			next = next[:batch-done]
			slices.SortFunc(next, pickOrder)
			for _, o := range next {
				for i := o.idx; out[i] > 0 && sum > target; sum-- {
					out[i]--
					rem[i]++
				}
			}
		}
	} else if sum < target {
		k := int(min(target-sum, int64(n)))
		selectFirst(a.scr.order, k)
		for _, o := range a.scr.order[:k] {
			out[o.idx]++
			rem[o.idx]--
		}
		for sum += int64(k); sum < target; sum++ { // beyond one full round: exact naive scan
			best := 0
			for i := 1; i < n; i++ {
				if rem[i] > rem[best] {
					best = i
				}
			}
			out[best]++
			rem[best]--
		}
	}
	for i, r := range rem {
		a.state[slot[i]].remainder = r
	}
	return out
}

// evictExpired drops state of jobs idle beyond the record TTL and returns
// their slots to the free list.
func (a *Allocator) evictExpired() {
	if a.recordTTL <= 0 {
		return
	}
	for job, s := range a.index {
		if a.periodIdx-a.state[s].lastActive > a.recordTTL {
			delete(a.index, job)
			a.free = append(a.free, s)
		}
	}
}

// mergeActivities deduplicates the active set by JobID (summing demands;
// the first entry's Nodes wins), clamps invalid fields, and sorts by JobID
// for determinism. The result lives in the allocator's reused scratch and
// is valid until the next Allocate.
func (a *Allocator) mergeActivities(active []Activity) []Activity {
	buf := append(a.scr.merged[:0], active...)
	a.scr.merged = buf
	for i := range buf {
		if buf[i].Nodes < 1 {
			buf[i].Nodes = 1
		}
		if buf[i].Demand < 0 {
			buf[i].Demand = 0
		}
	}
	// A stable sort keeps duplicates in input order, so the run's first
	// element carries the first entry's Nodes.
	slices.SortStableFunc(buf, func(x, y Activity) int { return cmp.Compare(x.Job, y.Job) })
	out := buf[:0]
	for _, in := range buf {
		if n := len(out); n > 0 && out[n-1].Job == in.Job {
			out[n-1].Demand += in.Demand
			continue
		}
		out = append(out, in)
	}
	return out
}
