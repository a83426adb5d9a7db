// Package gift implements a simplified GIFT controller — the
// coupon-based throttle-and-reward bandwidth manager (Patel, Garg, Tiwari,
// FAST'20) that the AdapTBF paper identifies as its closest relative and
// critiques in §IV-C: GIFT is *centralized* (one controller spanning all
// storage targets) and *priority-unaware* (every active application gets
// an equal share), and it reconciles throttling with fairness through
// coupons rather than through adaptive token records.
//
// The essential mechanics reproduced here:
//
//   - every epoch, each storage target's bandwidth is split equally among
//     the applications active on it;
//   - an application that cannot use its share cedes the surplus to
//     demanding applications and earns coupons for the ceded amount;
//   - a demanding application first redeems its own coupons for extra
//     bandwidth from the spare pool; remaining spare is granted
//     proportionally to demand (GIFT's "expand" phase), with those grants
//     paid for by issuing coupons to the ceding applications.
//
// Faithful simplifications: coupons here are denominated directly in
// tokens (GIFT uses normalized bandwidth), and the "reward redemption
// guarantee" analysis is out of scope — redemption is best-effort from
// the spare pool, which is the behaviour the AdapTBF comparison needs.
package gift

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"
)

// An Activity is one application's observed demand on one storage target
// during the epoch (RPCs issued, 1 RPC = 1 token).
type Activity struct {
	Job    string
	Demand int64
}

// An Allocation is the controller's decision for one application on one
// storage target.
type Allocation struct {
	Job    string
	Tokens int64   // tokens granted for the next epoch
	Rate   float64 // Tokens / epoch, in tokens per second
	// CouponsEarned and CouponsRedeemed report this epoch's coupon flow.
	CouponsEarned   float64
	CouponsRedeemed float64
}

// A Controller is the centralized GIFT decision maker. One Controller
// serves every storage target in the system — by design, in contrast with
// AdapTBF's per-target allocators.
type Controller struct {
	epoch time.Duration

	// The coupon bank is a dense table: an application is interned to a
	// slot on first sight (one map lookup per application per Allocate).
	index   map[string]int32
	names   []string  // by slot
	coupons []float64 // by slot
	// byName lists the slots in application-name order for the
	// order-sensitive bank sum; it is rebuilt only after a new application
	// was interned.
	byName []int32

	// Per-Allocate scratch, reused so a steady-state epoch allocates
	// nothing; out is what Allocate returns.
	scr struct {
		jobs            []Activity
		slot            []int32
		out             []Allocation
		grants, deficit []float64
		order           []redeemer
	}
}

// redeemer is one demanding application in the redemption order.
type redeemer struct {
	coupons float64
	job     string
	idx     int
}

// New returns a Controller with the given decision epoch.
func New(epoch time.Duration) *Controller {
	if epoch <= 0 {
		panic("gift: non-positive epoch")
	}
	return &Controller{epoch: epoch, index: make(map[string]int32)}
}

// Epoch reports the decision epoch.
func (c *Controller) Epoch() time.Duration { return c.epoch }

// Coupons reports an application's coupon balance.
func (c *Controller) Coupons(job string) float64 {
	if s, ok := c.index[job]; ok {
		return c.coupons[s]
	}
	return 0
}

// BankEntries reports how many applications currently hold a non-zero
// coupon balance — the size of the global state the centralized
// controller must keep consistent across every storage target. AdapTBF's
// per-target records need no such shared bank, which is the
// centralization-overhead argument the scale study quantifies.
func (c *Controller) BankEntries() int {
	n := 0
	for _, v := range c.coupons {
		if v != 0 {
			n++
		}
	}
	return n
}

// OutstandingCoupons reports the total coupon balance across all
// applications — the bandwidth debt the centralized bank still owes.
// Summation runs in application-name order: float addition is not
// associative, so slot order (first-seen order) would make the value
// depend on which target happened to report an application first.
func (c *Controller) OutstandingCoupons() float64 {
	if len(c.byName) != len(c.names) {
		c.byName = c.byName[:0]
		for s := range c.names {
			c.byName = append(c.byName, int32(s))
		}
		slices.SortFunc(c.byName, func(a, b int32) int { return strings.Compare(c.names[a], c.names[b]) })
	}
	var sum float64
	for _, s := range c.byName {
		sum += c.coupons[s]
	}
	return sum
}

// slotOf interns an application.
func (c *Controller) slotOf(job string) int32 {
	s, ok := c.index[job]
	if !ok {
		s = int32(len(c.names))
		c.index[job] = s
		c.names = append(c.names, job)
		c.coupons = append(c.coupons, 0)
	}
	return s
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

// Allocate computes one storage target's next-epoch grants from the
// applications active on it. maxRate is the target's token rate capacity
// in tokens per second. The coupon bank is global: balances earned on one
// target are redeemable on any other, which is what makes GIFT
// centralized.
//
// The returned slice is the controller's own buffer: it is valid until the
// next call to Allocate, which overwrites it. Callers that keep an epoch's
// grants copy them.
func (c *Controller) Allocate(active []Activity, maxRate float64) []Allocation {
	if len(active) == 0 {
		return nil
	}
	// Deterministic order; merge duplicates.
	buf := append(c.scr.jobs[:0], active...)
	c.scr.jobs = buf
	slices.SortStableFunc(buf, func(a, b Activity) int { return strings.Compare(a.Job, b.Job) })
	jobs := buf[:0]
	for _, a := range buf {
		a.Demand = max(a.Demand, 0)
		if n := len(jobs); n > 0 && jobs[n-1].Job == a.Job {
			jobs[n-1].Demand += a.Demand
			continue
		}
		jobs = append(jobs, a)
	}

	pool := maxRate * c.epoch.Seconds()
	share := pool / float64(len(jobs))

	slot := sbuf(&c.scr.slot, len(jobs))
	out := sbuf(&c.scr.out, len(jobs))
	grants := sbuf(&c.scr.grants, len(jobs))
	deficit := sbuf(&c.scr.deficit, len(jobs))
	spare := 0.0
	var totalDeficit float64
	for i, j := range jobs {
		slot[i] = c.slotOf(j.Job)
		d := float64(j.Demand)
		if d < share {
			// Cede the surplus; earn coupons for it.
			grants[i] = d
			ceded := share - d
			spare += ceded
			c.coupons[slot[i]] += ceded
			out[i].CouponsEarned = ceded
		} else {
			grants[i] = share
			deficit[i] = d - share
			totalDeficit += deficit[i]
		}
	}

	// Redemption: demanding applications spend their coupons on spare
	// bandwidth, highest balance first (GIFT repays its oldest debts
	// first; balance order is the deterministic stand-in).
	order := c.scr.order[:0]
	for i, j := range jobs {
		if deficit[i] > 0 {
			order = append(order, redeemer{coupons: c.coupons[slot[i]], job: j.Job, idx: i})
		}
	}
	c.scr.order = order
	slices.SortFunc(order, func(a, b redeemer) int {
		if a.coupons != b.coupons {
			return cmp.Compare(b.coupons, a.coupons)
		}
		return strings.Compare(a.job, b.job)
	})
	for _, r := range order {
		if spare <= 0 {
			break
		}
		i := r.idx
		redeem := math.Min(math.Min(r.coupons, deficit[i]), spare)
		if redeem <= 0 {
			continue
		}
		grants[i] += redeem
		deficit[i] -= redeem
		totalDeficit -= redeem
		spare -= redeem
		c.coupons[slot[i]] -= redeem
		out[i].CouponsRedeemed = redeem
	}

	// Expand: leftover spare goes to remaining deficits proportionally;
	// recipients pay with freshly owed coupons (implicitly: the ceding
	// jobs already hold them).
	if spare > 0 && totalDeficit > 0 {
		expand := math.Min(spare, totalDeficit)
		for i := range jobs {
			if deficit[i] <= 0 {
				continue
			}
			grants[i] += expand * deficit[i] / totalDeficit
		}
		spare -= expand
	}

	sec := c.epoch.Seconds()
	for i, j := range jobs {
		out[i].Job = j.Job
		out[i].Tokens = int64(math.Floor(grants[i]))
		out[i].Rate = grants[i] / sec
	}
	return out
}
