package tbf

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strings"
)

// A Request is one RPC submitted to the scheduler. Requests are classified
// by JobID and Opcode; Bytes and Stream are carried through untouched for
// the storage device model, and Userdata is an opaque caller payload (the
// simulator stores its completion callback there).
type Request struct {
	JobID string
	// Job is the caller-interned index of JobID, valid only on schedulers
	// that were told the job table size via SetJobCount. Callers that do
	// not intern (the live cluster) leave it zero and the scheduler
	// classifies by JobID alone.
	Job      int32
	Op       Opcode
	Bytes    int64
	Stream   int // identifies the file/stream the request belongs to
	Userdata any

	seq     uint64 // arrival order, for FCFS and deterministic tie-breaks
	arrival int64  // enqueue time
}

// Arrival reports the time the request was enqueued.
func (r *Request) Arrival() int64 { return r.arrival }

// A queue holds the FCFS backlog for one (rule, class) pair together with
// its token bucket and the deadline at which its next request becomes
// eligible.
type queue struct {
	rule     *rule
	class    string // the job ID value this queue serves
	bucket   Bucket
	reqs     []*Request
	head     int
	deadline int64
	heapIdx  int // index in the ready heap, -1 if not enqueued
}

func (q *queue) pending() int { return len(q.reqs) - q.head }

func (q *queue) push(r *Request) { q.reqs = append(q.reqs, r) }

func (q *queue) pop() *Request {
	r := q.reqs[q.head]
	q.reqs[q.head] = nil
	q.head++
	// Compact once the dead prefix dominates, keeping amortized O(1) pops
	// without unbounded memory growth.
	if q.head > 64 && q.head*2 >= len(q.reqs) {
		n := copy(q.reqs, q.reqs[q.head:])
		q.reqs = q.reqs[:n]
		q.head = 0
	}
	return r
}

// A rule is an installed Rule together with the queues created under it,
// so a rate change reaches exactly its own queues instead of scanning
// every queue of the scheduler.
type rule struct {
	Rule
	queues []*queue
}

// compareRules orders the rule list: by Order, then by Name. Names are
// unique, so the order is total.
func compareRules(a, b *rule) int {
	if c := cmp.Compare(a.Order, b.Order); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// compareSeq orders requests by arrival.
func compareSeq(a, b *Request) int { return cmp.Compare(a.seq, b.seq) }

// queueKey identifies one (rule, class) queue. A comparable struct key
// avoids the string concatenation a composite string key would allocate on
// every routing decision.
type queueKey struct {
	rule  *rule
	class string
}

// newQueue takes a recycled queue (or allocates one) and initializes it
// for a (rule, class) pair at time now.
func (s *Scheduler) newQueue(r *rule, class string, now int64) *queue {
	var q *queue
	if n := len(s.freeQueues); n > 0 {
		q = s.freeQueues[n-1]
		s.freeQueues = s.freeQueues[:n-1]
	} else {
		q = &queue{}
	}
	q.rule = r
	q.class = class
	q.bucket.Reset(r.Rate, s.depth, now)
	q.reqs = q.reqs[:0]
	q.head = 0
	q.deadline = 0
	q.heapIdx = -1
	r.queues = append(r.queues, q)
	return q
}

// releaseQueue returns a drained, de-heaped queue to the free list.
func (s *Scheduler) releaseQueue(q *queue) {
	q.rule = nil
	q.class = ""
	s.freeQueues = append(s.freeQueues, q)
}

// readyHeap is a binary heap of queues with pending requests, keyed by
// (deadline, rule order, arrival seq of the front request). Matching the
// paper, the scheduler always considers the queue with the nearest deadline
// first.
type readyHeap []*queue

func (h readyHeap) Len() int { return len(h) }

func (h readyHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	if h[i].rule.Order != h[j].rule.Order {
		return h[i].rule.Order < h[j].rule.Order
	}
	return h[i].reqs[h[i].head].seq < h[j].reqs[h[j].head].seq
}

func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *readyHeap) Push(x any) {
	q := x.(*queue)
	q.heapIdx = len(*h)
	*h = append(*h, q)
}

func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	old[n-1] = nil
	q.heapIdx = -1
	*h = old[:n-1]
	return q
}

// Config parameterizes a Scheduler.
type Config struct {
	// BucketDepth is the maximum tokens a queue's bucket may hold; Lustre's
	// default of 3 is used when zero.
	BucketDepth float64
}

// DefaultBucketDepth is Lustre's default TBF bucket depth.
const DefaultBucketDepth = 3

// routeOps is the number of distinct request opcodes the route cache
// discriminates (OpAny, OpRead, OpWrite).
const routeOps = 3

// A routeEntry memoizes where requests of one (job, opcode) class routed
// under one rule-set version.
type routeEntry struct {
	version  uint64
	q        *queue // nil when the class routes to the fallback queue
	fallback bool
}

// A Scheduler is the TBF policy engine: it classifies requests into
// token-bucket-regulated queues and hands them out in deadline order.
// Scheduler is not safe for concurrent use; the simulator is single
// threaded and the real-time OSS serializes access with a mutex.
type Scheduler struct {
	depth  float64
	rules  []*rule // maintained sorted by compareRules
	byName map[string]*rule
	queues map[queueKey]*queue
	ready  readyHeap

	fallback []*Request
	fbHead   int

	seq uint64

	// Route cache: for interned requests (SetJobCount called, Request.Job
	// set), routing is one slice load per request instead of walking the
	// rule list and wildcard-matching strings. version is bumped whenever
	// the rule list changes (a rule starts, stops, or moves), invalidating
	// every entry at once.
	njobs   int
	version uint64
	cache   [routeOps][]routeEntry

	// freeQueues recycles queue objects (and their request-slice capacity)
	// across the start/stop churn of dynamic rule management, so a
	// controller reshuffling rules every observation period stops paying a
	// queue allocation per (rule, class) per period.
	freeQueues []*queue

	// requeue is the reused buffer in which StartRule and StopRule collect
	// the requests they route again.
	requeue []*Request

	// counters
	enqueued uint64
	served   uint64
	fbServed uint64
}

// NewScheduler returns an empty scheduler with no rules: until rules are
// started, every request is served from the unregulated fallback queue in
// FCFS order, which is exactly the paper's "No BW" baseline.
func NewScheduler(cfg Config) *Scheduler {
	depth := cfg.BucketDepth
	if depth <= 0 {
		depth = DefaultBucketDepth
	}
	return &Scheduler{
		depth:   depth,
		byName:  make(map[string]*rule),
		queues:  make(map[queueKey]*queue),
		version: 1,
	}
}

// SetJobCount enables the interned fast path: the caller promises that
// every subsequent Request carries a stable Job index in [0, n). The
// simulator interns its job IDs at config time and calls this once per
// scheduler; callers that skip it (the live cluster) keep the string
// classification path.
func (s *Scheduler) SetJobCount(n int) {
	s.njobs = n
	backing := make([]routeEntry, routeOps*n)
	for op := range s.cache {
		s.cache[op] = backing[op*n : (op+1)*n : (op+1)*n]
	}
}

// RuleCount reports the number of active rules.
func (s *Scheduler) RuleCount() int { return len(s.rules) }

// AppendRules appends a snapshot of the active rules, sorted by order, to
// dst and returns the extended slice. The rule management daemon calls it
// every period with one reused buffer to decide which rules to create,
// change, or stop.
func (s *Scheduler) AppendRules(dst []Rule) []Rule {
	for _, r := range s.rules {
		dst = append(dst, r.Rule)
	}
	return dst
}

// RuleByName returns the named rule and whether it exists.
func (s *Scheduler) RuleByName(name string) (Rule, bool) {
	r, ok := s.byName[name]
	if !ok {
		return Rule{}, false
	}
	return r.Rule, true
}

// StartRule installs a new rule at time now. Requests already queued —
// including fallback requests — are reclassified so a rule takes effect
// immediately, matching the intent of dynamic rule creation in Lustre.
func (s *Scheduler) StartRule(r Rule, now int64) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, ok := s.byName[r.Name]; ok {
		return fmt.Errorf("tbf: rule %q already exists", r.Name)
	}
	nr := &rule{Rule: r}
	s.byName[r.Name] = nr
	i, _ := slices.BinarySearchFunc(s.rules, nr, compareRules)
	s.rules = slices.Insert(s.rules, i, nr)
	s.version++
	s.reclassify(now)
	return nil
}

// ChangeRule updates the rate and order of the named rule at time now.
// Existing queues keep their accumulated tokens, as `tbf change` does.
// Routing depends only on the rule list's sequence, so the route cache is
// invalidated only when the new order actually moves the rule past a
// neighbour.
func (s *Scheduler) ChangeRule(name string, rate float64, order int, now int64) error {
	r, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("tbf: rule %q does not exist", name)
	}
	if rate < 0 {
		return fmt.Errorf("tbf: rule %q: negative rate %v", name, rate)
	}
	r.Rate = rate
	if order != r.Order {
		s.reorder(r, order)
	}
	for _, q := range r.queues {
		q.bucket.SetRate(rate, now)
		if q.pending() > 0 {
			q.deadline = q.bucket.Deadline(1, now)
			s.fixHeap(q)
		}
	}
	return nil
}

// reorder gives r its new order and moves it to its sorted place among the
// other rules, which are in order already: two binary searches and one
// shift, where re-sorting the list cost O(n log n) per changed rule.
func (s *Scheduler) reorder(r *rule, order int) {
	i, _ := slices.BinarySearchFunc(s.rules, r, compareRules)
	r.Order = order
	// j is r's index in the list without r: left of i if a left neighbour
	// now sorts after it, otherwise past the right neighbours before it.
	j, _ := slices.BinarySearchFunc(s.rules[:i], r, compareRules)
	if j == i {
		k, _ := slices.BinarySearchFunc(s.rules[i+1:], r, compareRules)
		j = i + k
	}
	if j == i {
		return
	}
	if j < i {
		copy(s.rules[j+1:i+1], s.rules[j:i])
	} else {
		copy(s.rules[i:j], s.rules[i+1:j+1])
	}
	s.rules[j] = r
	s.version++
}

// StopRule removes the named rule at time now. Pending requests of its
// queues are reclassified against the remaining rules (falling back to the
// unregulated queue when nothing matches), so no request is ever lost.
func (s *Scheduler) StopRule(name string, now int64) error {
	r, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("tbf: rule %q does not exist", name)
	}
	delete(s.byName, name)
	i, _ := slices.BinarySearchFunc(s.rules, r, compareRules)
	s.rules = slices.Delete(s.rules, i, i+1)
	s.version++
	orphans := s.requeue[:0]
	for _, q := range r.queues {
		for q.pending() > 0 {
			orphans = append(orphans, q.pop())
		}
		if q.heapIdx >= 0 {
			heap.Remove(&s.ready, q.heapIdx)
		}
		delete(s.queues, queueKey{rule: r, class: q.class})
		s.releaseQueue(q)
	}
	r.queues = nil
	s.rerouteInOrder(orphans, now)
	return nil
}

// rerouteInOrder routes displaced requests again in arrival order and
// keeps their buffer for the next rule change.
func (s *Scheduler) rerouteInOrder(reqs []*Request, now int64) {
	slices.SortFunc(reqs, compareSeq)
	for _, req := range reqs {
		s.route(req, now)
	}
	clear(reqs)
	s.requeue = reqs[:0]
}

// reclassify re-routes every queued request through the current rule list.
// It is invoked when a rule starts so that backlogged fallback requests
// come under control immediately.
func (s *Scheduler) reclassify(now int64) {
	all := s.requeue[:0]
	for key, q := range s.queues {
		for q.pending() > 0 {
			all = append(all, q.pop())
		}
		if q.heapIdx >= 0 {
			heap.Remove(&s.ready, q.heapIdx)
		}
		delete(s.queues, key)
		s.releaseQueue(q)
	}
	for _, r := range s.rules {
		r.queues = r.queues[:0]
	}
	for i := s.fbHead; i < len(s.fallback); i++ {
		all = append(all, s.fallback[i])
	}
	s.fallback = s.fallback[:0]
	s.fbHead = 0
	s.rerouteInOrder(all, now)
}

// Enqueue classifies and queues a request at time now.
func (s *Scheduler) Enqueue(req *Request, now int64) {
	s.seq++
	req.seq = s.seq
	req.arrival = now
	s.enqueued++
	s.route(req, now)
}

// enqueueTo places a request in a regulated queue, arming the ready heap
// when the queue was empty.
func (s *Scheduler) enqueueTo(q *queue, req *Request, now int64) {
	q.push(req)
	if q.pending() == 1 { // was empty: enters the ready heap
		q.deadline = q.bucket.Deadline(1, now)
		heap.Push(&s.ready, q)
	}
}

// route places a request (which already has its seq) into the matching
// queue or the fallback queue. For interned requests the decision is
// memoized per (job, opcode) until the rule set changes.
func (s *Scheduler) route(req *Request, now int64) {
	cached := req.Job >= 0 && int(req.Job) < s.njobs && req.Op < routeOps
	if cached {
		e := &s.cache[req.Op][req.Job]
		if e.version == s.version {
			if e.fallback {
				s.fallback = append(s.fallback, req)
			} else {
				s.enqueueTo(e.q, req, now)
			}
			return
		}
	}
	for _, r := range s.rules {
		if !r.Match.Matches(req.JobID, req.Op) {
			continue
		}
		key := queueKey{rule: r, class: req.JobID}
		q, ok := s.queues[key]
		if !ok {
			q = s.newQueue(r, req.JobID, now)
			s.queues[key] = q
		}
		if cached {
			s.cache[req.Op][req.Job] = routeEntry{version: s.version, q: q}
		}
		s.enqueueTo(q, req, now)
		return
	}
	if cached {
		s.cache[req.Op][req.Job] = routeEntry{version: s.version, fallback: true}
	}
	s.fallback = append(s.fallback, req)
}

func (s *Scheduler) fixHeap(q *queue) {
	if q.heapIdx >= 0 {
		heap.Fix(&s.ready, q.heapIdx)
	}
}

// fallbackPending reports queued fallback requests.
func (s *Scheduler) fallbackPending() int { return len(s.fallback) - s.fbHead }

// Pending reports the total number of queued requests (regulated plus
// fallback).
func (s *Scheduler) Pending() int {
	n := s.fallbackPending()
	for _, q := range s.queues {
		n += q.pending()
	}
	return n
}

// PendingJobs reports, for every job with at least one queued request, how
// many of its requests are waiting (regulated queues plus fallback). The
// AdapTBF controller folds this NRS queue occupancy into each job's demand
// so that a job draining its backlog keeps its token rule until the
// backlog is gone.
func (s *Scheduler) PendingJobs() map[string]int {
	out := make(map[string]int)
	s.PendingJobsInto(out)
	return out
}

// PendingJobsInto adds the PendingJobs counts into dst, so a periodic
// caller can clear and reuse one map instead of allocating one per
// observation period. dst is not cleared first.
func (s *Scheduler) PendingJobsInto(dst map[string]int) {
	for _, q := range s.queues {
		if n := q.pending(); n > 0 {
			dst[q.class] += n
		}
	}
	for i := s.fbHead; i < len(s.fallback); i++ {
		dst[s.fallback[i].JobID]++
	}
}

// PendingForJob reports queued requests for one job across all queues.
func (s *Scheduler) PendingForJob(jobID string) int {
	n := 0
	for _, q := range s.queues {
		if q.class == jobID {
			n += q.pending()
		}
	}
	for i := s.fbHead; i < len(s.fallback); i++ {
		if s.fallback[i].JobID == jobID {
			n++
		}
	}
	return n
}

// Dequeue hands out the next request to serve at time now.
//
// Regulated queues are served in deadline order (earliest first), exactly
// like Lustre's binary heap of TBF queues: a queue's deadline is the
// instant its next token became (or becomes) available, so chronically
// under-served queues carry older deadlines and are never starved by
// higher-rate ones. Among queues with equal deadlines, the lower-order
// (higher-priority) rule wins — the rule hierarchy of §III-D. If no
// regulated queue is eligible, a fallback request is served
// opportunistically, modeling Lustre's idle I/O threads picking up the
// fallback queue. If nothing is servable, Dequeue returns wake, the
// earliest future instant at which a queue becomes eligible
// (InfiniteDeadline when there is no pending work at all).
func (s *Scheduler) Dequeue(now int64) (req *Request, wake int64, ok bool) {
	if len(s.ready) > 0 && s.ready[0].deadline <= now {
		q := heap.Pop(&s.ready).(*queue)
		if !q.bucket.TryConsume(1, now) {
			// Deadline said the token was there; pay up regardless and let
			// the bucket clamp at zero. This can only trip on float dust.
			q.bucket.tokens = 0
		}
		req = q.pop()
		if q.pending() > 0 {
			q.deadline = q.bucket.Deadline(1, now)
			heap.Push(&s.ready, q)
		}
		s.served++
		return req, 0, true
	}
	if s.fallbackPending() > 0 {
		req = s.fallback[s.fbHead]
		s.fallback[s.fbHead] = nil
		s.fbHead++
		if s.fbHead > 64 && s.fbHead*2 >= len(s.fallback) {
			n := copy(s.fallback, s.fallback[s.fbHead:])
			s.fallback = s.fallback[:n]
			s.fbHead = 0
		}
		s.served++
		s.fbServed++
		return req, 0, true
	}
	if len(s.ready) > 0 {
		return nil, s.ready[0].deadline, false
	}
	return nil, InfiniteDeadline, false
}

// Stats reports lifetime counters: total requests enqueued, total served,
// and how many of those were served from the fallback queue.
func (s *Scheduler) Stats() (enqueued, served, fallbackServed uint64) {
	return s.enqueued, s.served, s.fbServed
}

// BucketTokens reports the tokens available across every (rule, class)
// queue's bucket at time now — the scheduler-wide token occupancy the
// observability layer samples at controller epochs. Reading advances
// each bucket to now, which is exactly what the next Dequeue would do,
// so observation never changes scheduling behaviour.
func (s *Scheduler) BucketTokens(now int64) float64 {
	var total float64
	for _, q := range s.queues {
		total += q.bucket.Tokens(now)
	}
	return total
}

// BucketLevelsInto adds every queue's token level at time now into dst,
// keyed "<rule>/<class>". dst is not cleared first, so a periodic caller
// can reuse one map across observations.
func (s *Scheduler) BucketLevelsInto(now int64, dst map[string]float64) {
	for _, q := range s.queues {
		dst[q.rule.Name+"/"+q.class] = q.bucket.Tokens(now)
	}
}
