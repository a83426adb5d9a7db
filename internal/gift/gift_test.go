package gift

import (
	"fmt"
	"math"
	"testing"
	"time"

	"adaptbf/internal/race"
)

func controller() *Controller { return New(100 * time.Millisecond) }

// pool of 100 tokens per epoch at 1000 tokens/s.
const maxRate = 1000

func byJob(allocs []Allocation) map[string]Allocation {
	m := map[string]Allocation{}
	for _, a := range allocs {
		m[a.Job] = a
	}
	return m
}

func TestEqualSharesIgnorePriorities(t *testing.T) {
	// GIFT's defining contrast with AdapTBF: shares are equal per active
	// application — there is no notion of job size or priority.
	c := controller()
	got := byJob(c.Allocate([]Activity{
		{Job: "huge", Demand: 500},
		{Job: "tiny", Demand: 500},
	}, maxRate))
	if got["huge"].Tokens != 50 || got["tiny"].Tokens != 50 {
		t.Fatalf("equal-share split wrong: %+v", got)
	}
}

func TestSurplusFlowsAndEarnsCoupons(t *testing.T) {
	c := controller()
	got := byJob(c.Allocate([]Activity{
		{Job: "idle", Demand: 10},
		{Job: "busy", Demand: 500},
	}, maxRate))
	// idle cedes 40 of its 50-share; busy absorbs it via expand.
	if got["idle"].Tokens != 10 {
		t.Errorf("idle granted %d, want its demand 10", got["idle"].Tokens)
	}
	if got["busy"].Tokens != 90 {
		t.Errorf("busy granted %d, want 90 (share + expanded spare)", got["busy"].Tokens)
	}
	if math.Abs(got["idle"].CouponsEarned-40) > 1e-9 {
		t.Errorf("idle earned %v coupons, want 40", got["idle"].CouponsEarned)
	}
	if c.Coupons("idle") != 40 {
		t.Errorf("coupon bank = %v, want 40", c.Coupons("idle"))
	}
}

func TestCouponsRedeemedWhenDemandReturns(t *testing.T) {
	c := controller()
	// Epoch 1: lender cedes 40, earns coupons.
	c.Allocate([]Activity{
		{Job: "lender", Demand: 10},
		{Job: "other", Demand: 500},
	}, maxRate)
	// Epoch 2: roles reverse; the lender redeems for extra bandwidth.
	got := byJob(c.Allocate([]Activity{
		{Job: "lender", Demand: 500},
		{Job: "other", Demand: 10},
	}, maxRate))
	if got["lender"].CouponsRedeemed <= 0 {
		t.Fatal("no coupons redeemed")
	}
	if got["lender"].Tokens != 90 {
		t.Errorf("lender granted %d, want 90 (share + redeemed spare)", got["lender"].Tokens)
	}
	if c.Coupons("lender") != 0 {
		t.Errorf("lender balance after redemption = %v, want 0", c.Coupons("lender"))
	}
}

func TestRedemptionBoundedByBalanceAndSpare(t *testing.T) {
	c := controller()
	c.coupons[c.slotOf("a")] = 5 // small balance
	got := byJob(c.Allocate([]Activity{
		{Job: "a", Demand: 500},
		{Job: "ceder", Demand: 0},
	}, maxRate))
	// Spare is 50 (ceder's whole share); a redeems only its 5, the rest
	// expands.
	if got["a"].CouponsRedeemed != 5 {
		t.Errorf("redeemed %v, want 5 (balance-bounded)", got["a"].CouponsRedeemed)
	}
	if got["a"].Tokens != 100 {
		t.Errorf("a granted %d, want 100 (share+redeem+expand)", got["a"].Tokens)
	}
}

func TestPoolConserved(t *testing.T) {
	c := controller()
	for i := 0; i < 20; i++ {
		allocs := c.Allocate([]Activity{
			{Job: "a", Demand: int64(10 + i*7%90)},
			{Job: "b", Demand: int64(200 - i*5%100)},
			{Job: "c", Demand: 3},
		}, maxRate)
		var sum int64
		for _, al := range allocs {
			sum += al.Tokens
		}
		if sum > 100 {
			t.Fatalf("epoch %d: granted %d > pool 100", i, sum)
		}
	}
}

func TestHighestBalanceRedeemsFirst(t *testing.T) {
	c := controller()
	c.coupons[c.slotOf("rich")] = 100
	c.coupons[c.slotOf("poor")] = 1
	got := byJob(c.Allocate([]Activity{
		{Job: "rich", Demand: 500},
		{Job: "poor", Demand: 500},
		{Job: "ceder", Demand: 0},
	}, maxRate))
	// Spare = 33.3; rich redeems it all before poor sees any.
	if got["rich"].CouponsRedeemed <= got["poor"].CouponsRedeemed {
		t.Fatalf("redemption order wrong: rich %v, poor %v",
			got["rich"].CouponsRedeemed, got["poor"].CouponsRedeemed)
	}
}

func TestEmptyAndDuplicates(t *testing.T) {
	c := controller()
	if got := c.Allocate(nil, maxRate); got != nil {
		t.Fatal("allocation for empty set")
	}
	got := byJob(c.Allocate([]Activity{
		{Job: "a", Demand: 30},
		{Job: "a", Demand: 30},
		{Job: "b", Demand: 500},
	}, maxRate))
	if len(got) != 2 {
		t.Fatalf("duplicates not merged: %v", got)
	}
	if got["a"].Tokens != 50 { // merged demand 60 > share 50
		t.Errorf("a granted %d, want its full 50-share", got["a"].Tokens)
	}
}

func TestNewPanicsOnBadEpoch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// TestAllocateSteadyStateDoesNotAllocate: the central controller walks
// every storage target every epoch; with the same applications active,
// their demands moving, a walk stays off the heap.
func TestAllocateSteadyStateDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := controller()
	active := make([]Activity, 100)
	for i := range active {
		active[i].Job = fmt.Sprintf("job%03d", i)
	}
	epoch := 0
	walk := func() {
		epoch++
		for j := range active {
			active[j].Demand = int64((epoch*7 + j*53) % 90) // shares are 10: some cede, some redeem
		}
		if got := c.Allocate(active, 10000); len(got) != len(active) {
			t.Fatalf("%d grants for %d applications", len(got), len(active))
		}
		c.OutstandingCoupons()
	}
	walk()
	if n := testing.AllocsPerRun(100, walk); n != 0 {
		t.Fatalf("steady-state Allocate allocates %.1f times", n)
	}
}

// TestOutstandingCouponsSumsInNameOrder: the bank total must not depend on
// which application the controller happened to see first.
func TestOutstandingCouponsSumsInNameOrder(t *testing.T) {
	balances := map[string]float64{"a": 1e16, "b": 1, "c": -1e16, "d": 1}
	var want float64
	for _, j := range []string{"a", "b", "c", "d"} {
		want += balances[j]
	}
	for _, firstSeen := range [][]string{{"a", "b", "c", "d"}, {"d", "c", "b", "a"}, {"c", "a", "d", "b"}} {
		c := controller()
		for _, j := range firstSeen {
			c.coupons[c.slotOf(j)] = balances[j]
		}
		if got := c.OutstandingCoupons(); got != want {
			t.Fatalf("first seen in order %v: total %v, want %v", firstSeen, got, want)
		}
	}
}
