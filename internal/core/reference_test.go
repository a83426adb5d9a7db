package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refModel is a deliberately naive model of the paper's algorithm, written
// from Eq. 1-25 and not from allocator.go: one map per quantity of Table I,
// fresh slices every period, and the largest-remainder method as the
// textbook one-unit-at-a-time argmax scan. It is the fence the optimized
// Allocator is differential-tested against; it must stay slow and obvious.
type refModel struct {
	maxRate             float64
	period              time.Duration
	noRD, noRC, noCarry bool
	ttl                 int

	record    map[JobID]float64 // r_x
	remainder map[JobID]float64 // ρ_x
	prev      map[JobID]int64   // α^{t-1}_x
	lastSeen  map[JobID]int
	poolCarry float64
	t         int
}

func newRefModel(maxRate float64, period time.Duration) *refModel {
	return &refModel{
		maxRate: maxRate, period: period,
		record: map[JobID]float64{}, remainder: map[JobID]float64{},
		prev: map[JobID]int64{}, lastSeen: map[JobID]int{},
	}
}

// integers turns real-valued allocations into integers summing to target
// (Eq. 21-25): floor each value plus its carried remainder, then move one
// token at a time to or from the job with the largest remainder.
func (m *refModel) integers(jobs []JobID, raw map[JobID]float64, target int64) map[JobID]int64 {
	out := map[JobID]int64{}
	if m.noCarry {
		for _, j := range jobs {
			out[j] = int64(math.Floor(math.Max(0, raw[j])))
		}
		return out
	}
	rem := map[JobID]float64{}
	var sum int64
	for _, j := range jobs {
		x := math.Max(0, raw[j]+m.remainder[j])
		out[j] = int64(math.Floor(x))
		rem[j] = x - math.Floor(x)
		sum += out[j]
	}
	for ; sum > target; sum-- {
		best := JobID("")
		for _, j := range jobs {
			if out[j] > 0 && (best == "" || rem[j] > rem[best]) {
				best = j
			}
		}
		if best == "" {
			break
		}
		out[best]--
		rem[best]++
	}
	for ; sum < target; sum++ {
		best := jobs[0]
		for _, j := range jobs[1:] {
			if rem[j] > rem[best] {
				best = j
			}
		}
		out[best]++
		rem[best]--
	}
	for _, j := range jobs {
		m.remainder[j] = rem[j]
	}
	return out
}

// allocate runs one observation period.
func (m *refModel) allocate(active []Activity) []Allocation {
	m.t++
	for j, seen := range m.lastSeen {
		if m.ttl > 0 && m.t-seen > m.ttl {
			delete(m.lastSeen, j)
			delete(m.record, j)
			delete(m.remainder, j)
			delete(m.prev, j)
		}
	}
	if len(active) == 0 {
		return nil
	}
	nodes, demand := map[JobID]int{}, map[JobID]int64{}
	var jobs []JobID
	for _, a := range active {
		if _, dup := nodes[a.Job]; !dup {
			nodes[a.Job] = max(1, a.Nodes)
			jobs = append(jobs, a.Job)
		}
		demand[a.Job] += max(0, a.Demand)
		m.lastSeen[a.Job] = m.t
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i] < jobs[k] })
	totalNodes := 0
	for _, j := range jobs {
		totalNodes += nodes[j]
	}
	pool := m.maxRate*m.period.Seconds() + m.poolCarry
	target := int64(math.Floor(pool))
	m.poolCarry = pool - float64(target)

	// Step 1 (Eq. 1-2): p_x = n_x / Σn, α_x = T_i·Δt · p_x.
	al := map[JobID]*Allocation{}
	raw := map[JobID]float64{}
	for _, j := range jobs {
		p := float64(nodes[j]) / float64(totalNodes)
		al[j] = &Allocation{Job: j, Priority: p, Demand: demand[j]}
		raw[j] = float64(target) * p
	}
	initial := m.integers(jobs, raw, target)

	// Step 2 (Eq. 3-8): u_x = d_x/α^{t-1}_x; DF_x = u_x·p_x, plus u_x when
	// over-utilized; surplus T_s = Σ max(0, α_x − d_x) is shared by DF.
	u, df := map[JobID]float64{}, map[JobID]float64{}
	surplus, rRD := map[JobID]float64{}, map[JobID]float64{}
	var sumDF, totalSurplus float64
	for _, j := range jobs {
		u[j] = float64(demand[j]) / math.Max(1, float64(m.prev[j]))
		df[j] = u[j] * al[j].Priority
		if u[j] > 1 {
			df[j] = u[j] + u[j]*al[j].Priority
		}
		sumDF += df[j]
		if s := float64(initial[j] - demand[j]); s > 0 && !m.noRD {
			surplus[j] = s
			totalSurplus += s
		}
		rRD[j] = m.record[j]
		al[j].Initial, al[j].Utilization = initial[j], u[j]
	}
	afterRD := initial
	if totalSurplus > 0 && sumDF > 0 {
		raw = map[JobID]float64{}
		for _, j := range jobs {
			share := df[j] / sumDF * totalSurplus
			raw[j] = float64(initial[j]) - surplus[j] + share
			rRD[j] = m.record[j] + surplus[j] - share
			al[j].SurplusYielded, al[j].RedistributionReceived = surplus[j], share
		}
		afterRD = m.integers(jobs, raw, target)
	}

	// Step 3 (Eq. 9-20): J₊ / J₋ are jobs whose record kept its sign through
	// step 2; lenders reclaim a portion c of the borrowers' allocations,
	// bounded by each borrower's debt, and share it by DF.
	final, rFinal := afterRD, rRD
	var plus, minus []JobID
	for _, j := range jobs {
		if m.record[j] > 0 && rRD[j] > 0 {
			plus = append(plus, j)
		} else if m.record[j] < 0 && rRD[j] < 0 {
			minus = append(minus, j)
		}
	}
	if !m.noRD && !m.noRC && len(plus) > 0 && len(minus) > 0 {
		var c, sumDFPlus, totalReclaim float64
		for _, j := range plus {
			future := float64(demand[j]) / math.Max(1, float64(afterRD[j]))
			al[j].FutureUtilization = future
			c += (al[j].Priority*math.Max(1, u[j]) + math.Max(0, 1-future)) / 2
			sumDFPlus += df[j]
		}
		c = math.Min(c, 1)
		reclaim := map[JobID]float64{}
		for _, j := range minus {
			reclaim[j] = math.Min(-rRD[j], c*float64(afterRD[j]))
			totalReclaim += reclaim[j]
		}
		if c > 0 && sumDFPlus > 0 && totalReclaim > 0 {
			raw, rFinal = map[JobID]float64{}, map[JobID]float64{}
			for _, j := range jobs {
				raw[j], rFinal[j] = float64(afterRD[j]), rRD[j]
			}
			for _, j := range minus {
				raw[j] -= reclaim[j]
				rFinal[j] += reclaim[j]
				al[j].ReclaimPaid = reclaim[j]
			}
			for _, j := range plus {
				share := df[j] / sumDFPlus * totalReclaim
				raw[j] += share
				rFinal[j] -= share
				al[j].CompensationReceived = share
			}
			final = m.integers(jobs, raw, target)
		}
	}

	var out []Allocation
	for _, j := range jobs {
		m.record[j], m.prev[j] = rFinal[j], final[j]
		al[j].AfterRedistribution, al[j].Tokens, al[j].Record = afterRD[j], final[j], rFinal[j]
		al[j].Rate = float64(final[j]) / m.period.Seconds()
		out = append(out, *al[j])
	}
	return out
}

// randomPeriods builds a seeded activity sequence that exercises what the
// optimized allocator's bookkeeping could get wrong: jobs arriving and
// leaving for good, idle gaps longer than any TTL under test, zero and
// invalid demands, duplicate entries, and unsorted input. At most maxPop
// jobs exist at a time.
func randomPeriods(rng *rand.Rand, periods, maxPop int) [][]Activity {
	var out [][]Activity
	pop := []JobID{"a.n1", "b.n2", "c.n3"}
	next := 0
	for len(out) < periods {
		switch r := rng.Intn(20); {
		case r == 0: // idle gap, sometimes past the TTL
			for g := rng.Intn(8); g >= 0; g-- {
				out = append(out, nil)
			}
			continue
		case r < 4 && len(pop) < maxPop: // arrivals
			for k := 1 + rng.Intn(1+maxPop/8); k > 0; k-- {
				next++
				pop = append(pop, JobID(fmt.Sprintf("job%03d.n%d", next, rng.Intn(4))))
			}
		case r < 6 && len(pop) > 1: // departure
			i := rng.Intn(len(pop))
			pop = append(pop[:i], pop[i+1:]...)
		}
		var acts []Activity
		for _, j := range pop {
			if rng.Intn(4) == 0 {
				continue // silent this period
			}
			d := int64(0)
			switch rng.Intn(6) {
			case 0: // zero demand
			case 1:
				d = int64(rng.Intn(3000)) // far above any fair share
			case 2:
				d = -int64(rng.Intn(5)) // invalid: clamped to 0
			default:
				d = int64(rng.Intn(120))
			}
			acts = append(acts, Activity{Job: j, Nodes: rng.Intn(9), Demand: d})
			if rng.Intn(10) == 0 { // duplicate entry: demands sum, first Nodes wins
				acts = append(acts, Activity{Job: j, Nodes: 1 + rng.Intn(9), Demand: int64(rng.Intn(50))})
			}
		}
		rng.Shuffle(len(acts), func(i, k int) { acts[i], acts[k] = acts[k], acts[i] })
		out = append(out, acts)
	}
	return out
}

// TestAllocatorMatchesReferenceModel drives Allocate and the reference
// model through the same random sequences under every ablation option and
// demands bit-identical allocations and records after every period.
func TestAllocatorMatchesReferenceModel(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
		set  func(*refModel)
	}{
		{"full", nil, func(*refModel) {}},
		{"ttl3", []Option{WithRecordTTL(3)}, func(m *refModel) { m.ttl = 3 }},
		{"no-redistribution", []Option{WithoutRedistribution()}, func(m *refModel) { m.noRD = true }},
		{"no-recompensation", []Option{WithoutRecompensation(), WithRecordTTL(1)}, func(m *refModel) { m.noRC, m.ttl = true, 1 }},
		{"no-remainders", []Option{WithoutRemainders(), WithRecordTTL(6)}, func(m *refModel) { m.noCarry, m.ttl = true, 6 }},
	}
	rates := []float64{37, 500, 1234.5, 20000} // pools of 3.7, 50, 123.45, 2000 tokens
	const period = 100 * time.Millisecond
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rate := rates[seed%int64(len(rates))]
				ref := newRefModel(rate, period)
				v.set(ref)
				a := New(Config{MaxRate: rate, Period: period}, v.opts...)
				// Every fifth seed is crowded: many more jobs than tokens
				// to go round, so corrections span many jobs.
				maxPop := 12
				if seed%5 == 0 {
					maxPop = 90
				}
				for p, acts := range randomPeriods(rng, 150, maxPop) {
					want, got := ref.allocate(acts), a.Allocate(acts)
					if len(got) != len(want) {
						t.Fatalf("seed %d period %d: %d allocations, reference has %d", seed, p, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d period %d job %s:\n got %+v\nwant %+v", seed, p, want[i].Job, got[i], want[i])
						}
					}
					recs := a.Records()
					if len(recs) != len(ref.record) {
						t.Fatalf("seed %d period %d: %d records, reference has %d", seed, p, len(recs), len(ref.record))
					}
					for j, r := range ref.record {
						if got, ok := recs[j]; !ok || got != r {
							t.Fatalf("seed %d period %d: record[%s] = %v (present %v), reference %v", seed, p, j, got, ok, r)
						}
					}
				}
			}
		})
	}
}

// TestIntegerizeMatchesNaiveScan pits the batched take path, the selection
// give path and the beyond-one-round fallback against the reference's
// one-unit-at-a-time scan on corrections far larger than the three-step
// algorithm usually produces: random carried remainders (including the
// negative and above-one values corrections leave behind), many ties, and
// targets from zero to twice the floor sum.
func TestIntegerizeMatchesNaiveScan(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a := New(Config{MaxRate: 1, Period: time.Second})
		ref := newRefModel(1, time.Second)
		jobs, slot := make([]JobID, n), make([]int32, n)
		raw, rawByJob := make([]float64, n), map[JobID]float64{}
		for i := range jobs {
			jobs[i] = JobID(fmt.Sprintf("j%03d", i))
			slot[i] = a.slotOf(jobs[i])
			raw[i] = float64(rng.Intn(12)) / 4 // quarters: plenty of equal remainders
			carried := float64(rng.Intn(12))/4 - 1
			rawByJob[jobs[i]], ref.remainder[jobs[i]] = raw[i], carried
			a.state[slot[i]].remainder = carried
		}
		target := int64(rng.Intn(2*n + 1))
		got, want := a.integerize(make([]int64, n), slot, raw, target), ref.integers(jobs, rawByJob, target)
		for i, j := range jobs {
			if got[i] != want[j] || a.state[slot[i]].remainder != ref.remainder[j] {
				t.Fatalf("seed %d (n=%d target=%d) job %d: tokens %d remainder %v, naive scan %d / %v",
					seed, n, target, i, got[i], a.state[slot[i]].remainder, want[j], ref.remainder[j])
			}
		}
	}
}
