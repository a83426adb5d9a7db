package cluster

import (
	"sync"
	"time"

	"adaptbf/internal/edt"
	"adaptbf/internal/obs"
	"adaptbf/internal/policy"
	"adaptbf/internal/rules"
	"adaptbf/internal/tbf"
)

// The wrappers in this file make a single-threaded scheduler
// (policy.Gate: *tbf.Scheduler, *sfq.Scheduler, *edt.Scheduler)
// concurrency-safe — either behind a single lock (lockedGate) or striped
// across independently locked shards (shardedGate) — and are where
// gate_lock_wait_ns is observed, so every gate reports comparable
// lock-wait numbers at the same seam.

// observeLock acquires mu, recording the acquisition wait into waitH
// when observability is on.
func observeLock(mu *sync.Mutex, waitH *obs.Histogram) {
	if waitH == nil {
		mu.Lock()
		return
	}
	t0 := time.Now()
	mu.Lock()
	waitH.Observe(int64(time.Since(t0)))
}

// lockedGate serializes a single-threaded scheduler behind one mutex —
// the classic root-lock qdisc shape whose contention this package's
// sharded and EDT gates exist to relieve.
type lockedGate struct {
	mu    sync.Mutex
	inner policy.Gate
	waitH *obs.Histogram
}

func newLockedGate(inner policy.Gate, waitH *obs.Histogram) *lockedGate {
	return &lockedGate{inner: inner, waitH: waitH}
}

func (g *lockedGate) Enqueue(req *tbf.Request, now int64) {
	observeLock(&g.mu, g.waitH)
	g.inner.Enqueue(req, now)
	g.mu.Unlock()
}

func (g *lockedGate) Dequeue(now int64) (*tbf.Request, int64, bool) {
	observeLock(&g.mu, g.waitH)
	req, wake, ok := g.inner.Dequeue(now)
	g.mu.Unlock()
	return req, wake, ok
}

func (g *lockedGate) PendingJobs() map[string]int {
	out := make(map[string]int)
	observeLock(&g.mu, g.waitH)
	g.inner.PendingJobsInto(out)
	g.mu.Unlock()
	return out
}

// withLock runs fn under the gate lock. Rule mutations, token
// introspection, and SFQ slot releases on the inner scheduler all go
// through here.
func (g *lockedGate) withLock(fn func()) {
	observeLock(&g.mu, g.waitH)
	fn()
	g.mu.Unlock()
}

// gateShard pairs one single-threaded scheduler with its stripe lock.
type gateShard struct {
	mu    sync.Mutex
	inner policy.Gate
}

// shardedGate stripes gate state across N independently locked shards
// keyed by flow hash: a flow's requests always land in the same shard,
// so per-flow scheduler state (token buckets, EDT departure stamps)
// stays coherent while flows in different shards never contend.
//
// Dequeue scans the shards round-robin from a rotating start index and
// releases the first eligible request, folding the minimum wake across
// shards when nothing is due. The scan locks one shard at a time, so
// enqueuers block on at most one stripe.
type shardedGate struct {
	shards []*gateShard
	waitH  *obs.Histogram
	next   uint32 // rotating Dequeue start; mutated only by the dispatcher
}

func newShardedGate(inners []policy.Gate, waitH *obs.Histogram) *shardedGate {
	g := &shardedGate{shards: make([]*gateShard, len(inners)), waitH: waitH}
	for i, in := range inners {
		g.shards[i] = &gateShard{inner: in}
	}
	return g
}

// flowShard hashes a flow to its stripe (FNV-1a over the job ID).
func flowShard(jobID string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

func (g *shardedGate) Enqueue(req *tbf.Request, now int64) {
	sh := g.shards[flowShard(req.JobID, len(g.shards))]
	observeLock(&sh.mu, g.waitH)
	sh.inner.Enqueue(req, now)
	sh.mu.Unlock()
}

func (g *shardedGate) Dequeue(now int64) (*tbf.Request, int64, bool) {
	n := len(g.shards)
	start := int(g.next % uint32(n))
	g.next++
	minWake := tbf.InfiniteDeadline
	for i := 0; i < n; i++ {
		sh := g.shards[(start+i)%n]
		observeLock(&sh.mu, g.waitH)
		req, wake, ok := sh.inner.Dequeue(now)
		sh.mu.Unlock()
		if ok {
			return req, 0, true
		}
		if wake < minWake {
			minWake = wake
		}
	}
	return nil, minWake, false
}

func (g *shardedGate) PendingJobs() map[string]int {
	out := make(map[string]int)
	for _, sh := range g.shards {
		observeLock(&sh.mu, g.waitH)
		sh.inner.PendingJobsInto(out)
		sh.mu.Unlock()
	}
	return out
}

// DefaultGateShards is the stripe count when a sharded gate is
// requested without one.
const DefaultGateShards = 8

// ShardedTBF is the lock-striped live TBF gate: N tbf.Schedulers, each
// behind its own lock, with flows hashed to shards. Rules are
// broadcast to every shard; since the scheduler only materializes a
// (rule, class) queue when a request of that class arrives, a class's
// token bucket lives wholly in the one shard its flow hashes to — the
// broadcast cannot over-issue tokens across shards.
type ShardedTBF struct {
	gate   *shardedGate
	scheds []*tbf.Scheduler
}

// NewShardedTBF builds a sharded TBF gate with the given stripe count
// (<= 0 selects DefaultGateShards) and per-shard bucket depth, wiring
// lock-wait observation into waitH (nil = off).
func NewShardedTBF(shards int, bucketDepth float64, waitH *obs.Histogram) *ShardedTBF {
	if shards <= 0 {
		shards = DefaultGateShards
	}
	scheds := make([]*tbf.Scheduler, shards)
	inners := make([]policy.Gate, shards)
	for i := range scheds {
		scheds[i] = tbf.NewScheduler(tbf.Config{BucketDepth: bucketDepth})
		inners[i] = scheds[i]
	}
	return &ShardedTBF{gate: newShardedGate(inners, waitH), scheds: scheds}
}

// Shards reports the stripe count.
func (s *ShardedTBF) Shards() int { return len(s.scheds) }

func (s *ShardedTBF) Enqueue(req *tbf.Request, now int64) { s.gate.Enqueue(req, now) }
func (s *ShardedTBF) Dequeue(now int64) (*tbf.Request, int64, bool) {
	return s.gate.Dequeue(now)
}
func (s *ShardedTBF) PendingJobs() map[string]int { return s.gate.PendingJobs() }

// BucketTokens sums the token occupancy across every shard's buckets.
func (s *ShardedTBF) BucketTokens(now int64) float64 {
	var total float64
	for i, sh := range s.gate.shards {
		observeLock(&sh.mu, s.gate.waitH)
		total += s.scheds[i].BucketTokens(now)
		sh.mu.Unlock()
	}
	return total
}

// BucketLevelsInto merges every shard's per-queue token levels into
// dst. Shards hold disjoint (rule, class) queues, so keys never
// collide.
func (s *ShardedTBF) BucketLevelsInto(now int64, dst map[string]float64) {
	for i, sh := range s.gate.shards {
		observeLock(&sh.mu, s.gate.waitH)
		s.scheds[i].BucketLevelsInto(now, dst)
		sh.mu.Unlock()
	}
}

// Engine returns a thread-safe rules.Engine that broadcasts every
// mutation to all shards, so each shard routes its flows under the
// complete rule set.
func (s *ShardedTBF) Engine() rules.Engine { return shardedEngine{s} }

type shardedEngine struct{ s *ShardedTBF }

func (e shardedEngine) AppendRules(dst []tbf.Rule) []tbf.Rule {
	// Every shard holds the same rule set; report shard 0's view.
	sh := e.s.gate.shards[0]
	observeLock(&sh.mu, e.s.gate.waitH)
	dst = e.s.scheds[0].AppendRules(dst)
	sh.mu.Unlock()
	return dst
}

func (e shardedEngine) StartRule(r tbf.Rule, now int64) error {
	return e.broadcast(func(sc *tbf.Scheduler) error { return sc.StartRule(r, now) })
}

func (e shardedEngine) ChangeRule(name string, rate float64, order int, now int64) error {
	return e.broadcast(func(sc *tbf.Scheduler) error { return sc.ChangeRule(name, rate, order, now) })
}

func (e shardedEngine) StopRule(name string, now int64) error {
	return e.broadcast(func(sc *tbf.Scheduler) error { return sc.StopRule(name, now) })
}

// broadcast applies one rule mutation to every shard, locking each in
// turn, and returns the first error (the shards share a rule set, so
// an error on one is an error on all).
func (e shardedEngine) broadcast(fn func(*tbf.Scheduler) error) error {
	var first error
	for i, sh := range e.s.gate.shards {
		observeLock(&sh.mu, e.s.gate.waitH)
		err := fn(e.s.scheds[i])
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newShardedEDT builds the sharded live EDT gate: N edt.Schedulers
// behind per-shard locks. A flow's departure stamp lives in its one
// shard, so pacing stays exact while flows in different shards pace in
// parallel — the core of EDT's multi-core scaling argument.
func newShardedEDT(shards int, cfg edt.Config, waitH *obs.Histogram) *shardedGate {
	if shards <= 0 {
		shards = DefaultGateShards
	}
	inners := make([]policy.Gate, shards)
	for i := range inners {
		inners[i] = edt.New(cfg)
	}
	return newShardedGate(inners, waitH)
}
