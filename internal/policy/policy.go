// Package policy is the single table of bandwidth-control policies:
// one row per policy saying what it is called, which request gate it
// schedules through, and which control loop runs beside each storage
// server. The simulator, the live OSS server, the node daemon, the
// harness backends and the CLIs all consult this table instead of
// switching on a policy themselves, so adding a policy that reuses an
// existing gate and control loop is one row here plus its scheduler.
//
// The package also declares the two things every consumer of a row
// needs next: the sequential gate contract the schedulers implement
// (Gate) and the node-share arithmetic that turns job sizes into SFQ
// weights, EDT byte rates and the AdapTBF controller's priorities
// (NodeShares).
package policy

import (
	"fmt"
	"strings"

	"adaptbf/internal/tbf"
)

// A Policy selects the bandwidth-control mechanism under test.
type Policy int

// The paper's three evaluation mechanisms, plus the related-work
// fair-queueing baseline, the GIFT centralized allocator, and EDT
// (Earliest Departure Time) pacing — the per-request departure-stamp
// model production traffic shaping adopted when single-lock token
// buckets became the scaling wall. A Policy's value is its row index in
// the table below.
const (
	NoBW Policy = iota
	StaticBW
	AdapTBF
	SFQ
	GIFT
	EDT
)

// A GateKind names the scheduler standing between arriving requests and
// the device.
type GateKind int

const (
	// TBFGate is the token-bucket-filter scheduler (package tbf): FCFS
	// until rules classify requests into rate-limited queues.
	TBFGate GateKind = iota
	// SFQGate is start-time fair queueing with depth (package sfq),
	// weighted by NodeShares.Weight.
	SFQGate
	// EDTGate is earliest-departure-time pacing (package edt) at the
	// fixed per-flow rates of NodeShares.ByteRates.
	EDTGate
)

// A ControlLoop names what runs beside a storage server to drive its
// gate's rules.
type ControlLoop int

const (
	// NoControl runs nothing: the gate alone is the policy.
	NoControl ControlLoop = iota
	// StaticRules installs workload.StaticRules once at start.
	StaticRules
	// PerOSSController runs one independent AdapTBF controller per
	// storage server — the paper's decentralized design.
	PerOSSController
	// CentralCoordinator runs one GIFT coupon-bank coordinator for the
	// whole cell, consulted by an agent beside every storage server.
	CentralCoordinator
)

// A Descriptor is one policy's row.
type Descriptor struct {
	Policy  Policy
	Name    string   // as the paper prints it
	Flag    string   // canonical CLI / scenario-file / node-daemon name
	Aliases []string // other spellings Parse accepts
	Gate    GateKind
	Control ControlLoop
}

// table is indexed by Policy value.
var table = []Descriptor{
	{NoBW, "No BW", "nobw", []string{"none", "fcfs"}, TBFGate, NoControl},
	{StaticBW, "Static BW", "static", nil, TBFGate, StaticRules},
	{AdapTBF, "AdapTBF", "adaptbf", nil, TBFGate, PerOSSController},
	{SFQ, "SFQ(D)", "sfq", []string{"sfqd", "sfq(d)"}, SFQGate, NoControl},
	{GIFT, "GIFT", "gift", nil, TBFGate, CentralCoordinator},
	{EDT, "EDT", "edt", nil, EDTGate, NoControl},
}

// All returns every row, in Policy order.
func All() []Descriptor { return append([]Descriptor(nil), table...) }

// Lookup returns p's row; ok is false for a value outside the table.
func Lookup(p Policy) (d Descriptor, ok bool) {
	if p < 0 || int(p) >= len(table) {
		return Descriptor{}, false
	}
	return table[p], true
}

// String names the policy as the paper does.
func (p Policy) String() string {
	if d, ok := Lookup(p); ok {
		return d.Name
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Flags lists every policy's canonical flag, in Policy order, for help
// texts and error messages.
func Flags() string {
	flags := make([]string, len(table))
	for i, d := range table {
		flags[i] = d.Flag
	}
	return strings.Join(flags, ", ")
}

// Parse maps a flag or alias (case-insensitive, space-trimmed) to its
// policy. What an empty name means is the caller's decision.
func Parse(name string) (Policy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, d := range table {
		if key == d.Flag {
			return d.Policy, nil
		}
		for _, a := range d.Aliases {
			if key == a {
				return d.Policy, nil
			}
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q (want one of %s)", name, Flags())
}

// A Gate is the sequential scheduler contract *tbf.Scheduler,
// *sfq.Scheduler and *edt.Scheduler implement: the simulator drives one
// directly from its event loop; the live OSS wraps one (or a shard set)
// behind locks.
type Gate interface {
	Enqueue(req *tbf.Request, now int64)
	Dequeue(now int64) (req *tbf.Request, wake int64, ok bool)
	Pending() int
	PendingJobsInto(dst map[string]int)
}

// NodeShares derives every per-job quantity a policy needs from the
// jobs' compute-node counts — the scheduler-provided knowledge the paper
// assumes (§IV-D). It reads the map it was built from, so entries added
// later are seen, but the total is fixed at construction.
type NodeShares struct {
	nodes map[string]int
	total int
}

// NewNodeShares wraps a job → compute-node-count map.
func NewNodeShares(nodes map[string]int) NodeShares {
	s := NodeShares{nodes: nodes}
	for _, n := range nodes {
		s.total += n
	}
	return s
}

// Nodes reports a job's node count, 1 for a job not listed. It makes
// NodeShares the AdapTBF controller's node mapper.
func (s NodeShares) Nodes(jobID string) int {
	if n := s.nodes[jobID]; n > 0 {
		return n
	}
	return 1
}

// Weight is the job's SFQ flow weight: its node count.
func (s NodeShares) Weight(jobID string) float64 { return float64(s.Nodes(jobID)) }

// ByteRates converts a storage target's token capacity into EDT's fixed
// per-flow pacing rates: a job's node share of maxTokenRate tokens/s,
// one token ≈ one 1 MiB RPC — the same split workload.StaticRules
// encodes as token rules, in the bytes/s EDT paces in. A job not listed
// gets rate 0, which EDT leaves unpaced.
func (s NodeShares) ByteRates(maxTokenRate float64) func(jobID string) float64 {
	return func(jobID string) float64 {
		if s.total == 0 {
			return 0
		}
		return float64(s.nodes[jobID]) / float64(s.total) * maxTokenRate * (1 << 20)
	}
}
