package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// streamIDs hands out globally unique stream identifiers so the device
// model's stream-switch accounting works across jobs and runners.
var streamIDs atomic.Int64

// JobStats summarizes a completed (or cancelled) job run.
type JobStats struct {
	RPCs    int64 // RPCs actually served
	Bytes   int64 // bytes actually served (the goodput numerator)
	Elapsed time.Duration

	// Admission outcomes. Rejected counts RPCs the server refused on
	// arrival, Shed the ones admitted then dropped past their queueing
	// deadline; neither is a failure nor an entry in RPCs/Bytes.
	// OfferedBytes is the payload total of every RPC that got a
	// definitive answer (served, rejected, or shed) — the goodput
	// denominator.
	Rejected     int64
	Shed         int64
	OfferedBytes int64

	// Retries counts call attempts beyond each RPC's first — transport
	// failures the runner's backoff loop absorbed (the remote backend
	// folds these into the cell's transport_retries metric).
	Retries int64
}

// A JobRunner executes one workload.Job as live goroutines issuing RPCs
// against the given storage targets: one goroutine per process, plus one
// per further in-flight slot of its window (Pattern.MaxInflight — an
// OSC's max_rpcs_in_flight), never one per RPC. Processes stripe their
// requests round-robin across targets, like a Lustre client striping a
// file over OSTs.
type JobRunner struct {
	Job workload.Job
	// Targets are the storage endpoints: in-process *transport.Client
	// pipes for the live backend, *transport.Redialer reconnecting
	// clients for the remote one.
	Targets []transport.Caller

	// RPCTimeout bounds each RPC attempt: it is the d of the attempt's
	// Caller.CallWithin, which the target's client enforces with the one
	// timer it keeps for all its calls — bounding an attempt makes no
	// context and no timer of its own. 0 means no per-attempt bound beyond
	// the run context — fine in-process, where a stalled OSS means a broken
	// test, but remote runs should set it so a wedged or crashed node fails
	// calls instead of wedging the run.
	RPCTimeout time.Duration
	// Retries is how many extra attempts a transport-level failure gets
	// (0 = none). Server-reported errors are never retried: the request
	// arrived. The storage RPCs here are accounting events, so an
	// at-least-once replay is safe by construction.
	Retries int
	// RetryBackoff is the initial inter-attempt sleep (default 25ms),
	// doubling per retry.
	RetryBackoff time.Duration

	// Observe, when set, is called once per successfully completed RPC
	// with the bytes transferred and the client-perceived latency (issue
	// to reply receipt, retries included). Each call comes from the window
	// slot that made the RPC, right after its reply and before the slot's
	// next request, so a slow observer holds that slot back; slots, of one
	// process or of several, call concurrently, and the observer must be
	// safe for that. This is how the matrix harness's live backend
	// assembles timelines and latency digests from a wall-clock run.
	Observe func(bytes int64, latency time.Duration)
}

// Run executes every process to completion (or until ctx is cancelled —
// the way to stop unbounded patterns) and returns the job's aggregate
// stats. The first RPC error aborts the run.
func (r *JobRunner) Run(ctx context.Context) (JobStats, error) {
	if err := r.Job.Validate(); err != nil {
		return JobStats{}, err
	}
	if len(r.Targets) == 0 {
		return JobStats{}, fmt.Errorf("cluster: job %s has no targets", r.Job.ID)
	}
	start := time.Now()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex // stats, first
		stats JobStats
		first error
	)
	for _, pat := range r.Job.Procs {
		pat := pat.Normalize()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps, err := r.runProc(ctx, pat)
			mu.Lock()
			defer mu.Unlock()
			stats.add(ps)
			if first == nil {
				first = err
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	return stats, first
}

// add folds another tally's counters into s (Elapsed is the run's, not a sum).
func (s *JobStats) add(o JobStats) {
	s.RPCs += o.RPCs
	s.Bytes += o.Bytes
	s.Rejected += o.Rejected
	s.Shed += o.Shed
	s.OfferedBytes += o.OfferedBytes
	s.Retries += o.Retries
}

// call issues one RPC with the runner's per-attempt deadline and
// bounded backoff retry. Transport-level failures retry (the request may
// never have arrived); server-reported errors, admission rejections, and
// run-context expiry do not — a rejection in particular is the server
// shedding load, and retrying it is exactly the load being shed.
func (r *JobRunner) call(ctx context.Context, target transport.Caller, req transport.Request, retried *int64) (transport.Reply, error) {
	backoff := r.RetryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	var rep transport.Reply
	var err error
	for try := 0; try <= r.Retries; try++ {
		if try > 0 {
			*retried++
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		rep, err = target.CallWithin(ctx, req, r.RPCTimeout)
		if err == nil {
			return rep, nil
		}
		var remote *transport.RemoteError
		var rejected *transport.RejectedError
		if errors.As(err, &remote) || errors.As(err, &rejected) || ctx.Err() != nil {
			return rep, err
		}
	}
	return rep, err
}

// runProc executes one process: RPCs to its own stream through a
// window of in-flight slots, issued continuously or grouped into bursts
// separated by idle intervals. A continuous pattern keeps its slots for
// the whole run; a bursty one starts them once per burst.
func (r *JobRunner) runProc(ctx context.Context, pat workload.Pattern) (JobStats, error) {
	if pat.StartDelay > 0 {
		select {
		case <-time.After(pat.StartDelay):
		case <-ctx.Done():
			return JobStats{}, ctx.Err()
		}
	}
	stream := int(streamIDs.Add(1))
	w := &window{
		r:   r,
		ctx: ctx,
		req: transport.Request{
			JobID:  r.Job.ID,
			Op:     uint8(pat.Op),
			Bytes:  pat.RPCBytes,
			Stream: stream,
		},
		slots:     int64(pat.MaxInflight),
		remaining: pat.RPCs(),
		// Stripe layout mirrors the simulator: the file's first stripe lands
		// on a per-file round-robin base and the file spans StripeCount
		// targets from there (0 = all targets).
		base:    stream % len(r.Targets),
		stripes: pat.StripeCount,
	}
	if w.remaining == 0 {
		w.remaining = math.MaxInt64 // unbounded: ctx ends the run
	}
	if w.stripes <= 0 || w.stripes > len(r.Targets) {
		w.stripes = len(r.Targets)
	}

	if pat.BurstRPCs == 0 {
		w.issue(math.MaxInt64)
		return w.st, w.err
	}
	for {
		w.issue(int64(pat.BurstRPCs))
		if w.err != nil || w.remaining == 0 {
			return w.st, w.err
		}
		select {
		case <-time.After(pat.BurstInterval):
		case <-ctx.Done():
			return w.st, ctx.Err()
		}
	}
}

// A window is one process's issue state: what is left to send, in what
// target order, and what came of it. Its slots — at most MaxInflight
// goroutines, the process's own among them — share it under mu; between
// issues (no slot running) it belongs to runProc alone.
type window struct {
	r   *JobRunner
	ctx context.Context
	req transport.Request
	wg  sync.WaitGroup

	slots         int64 // MaxInflight
	base, stripes int   // stripe layout over r.Targets

	mu        sync.Mutex
	remaining int64 // RPCs the process has yet to issue
	quota     int64 // RPCs this issue (this burst) may still send
	rr        int   // RPCs issued so far: the stripe cursor
	// err ends the run: the first transport error, wrapped once, or
	// ctx.Err() once a slot found the context over with RPCs left to send.
	err error
	st  JobStats
}

// issue sends up to n of the remaining RPCs with at most MaxInflight
// outstanding, and returns when every one of them has been answered (or
// the run has ended). It runs min(MaxInflight, what there is to send)
// slots, the calling goroutine being one of them — so a window of one
// issues inline, with no hand-off at all. Each call runs under ctx,
// so cancelling ctx bounds in-flight calls too: a wedged target fails
// its calls at the deadline instead of hanging the window.
func (w *window) issue(n int64) {
	w.quota = n
	slots := min(w.slots, n, w.remaining) // read before any slot runs
	for i := int64(1); i < slots; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.slot()
		}()
	}
	w.slot()
	w.wg.Wait()
}

// claim takes the next RPC off the window: its target, in stripe order.
// It reports false when the slot should stop — nothing left to send in
// this issue, an earlier error, or the run's context over.
func (w *window) claim() (transport.Caller, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.quota == 0 || w.remaining == 0 {
		return nil, false
	}
	select {
	case <-w.ctx.Done():
		w.err = w.ctx.Err()
		return nil, false
	default:
	}
	target := w.r.Targets[(w.base+w.rr%w.stripes)%len(w.r.Targets)]
	w.rr++
	w.remaining--
	w.quota--
	return target, true
}

// slot is one in-flight position: claim, call, account, observe, until
// there is nothing left to claim. It counts into its own JobStats and
// folds them into the window's once, on the way out.
func (w *window) slot() {
	var st JobStats
	var failed error
	for failed == nil {
		target, ok := w.claim()
		if !ok {
			break
		}
		issued := time.Now()
		rep, err := w.r.call(w.ctx, target, w.req, &st.Retries)
		if err == nil {
			st.OfferedBytes += w.req.Bytes
			st.Bytes += rep.Bytes
			st.RPCs++
			if w.r.Observe != nil {
				w.r.Observe(rep.Bytes, time.Since(issued))
			}
			continue
		}
		// An admission rejection is a definitive answer from a healthy
		// server, not a failure: count it, keep going, and keep it out of
		// the latency observer — rejected work must never flatter the
		// served distribution.
		var rej *transport.RejectedError
		if errors.As(err, &rej) {
			st.OfferedBytes += w.req.Bytes
			if rej.Shed {
				st.Shed++
			} else {
				st.Rejected++
			}
			continue
		}
		// A call cut short by the run ending is not a job failure — the
		// next claim reports ctx.Err() itself.
		if w.ctx.Err() == nil {
			failed = fmt.Errorf("cluster: %w", err)
		}
	}
	w.mu.Lock()
	if failed != nil && w.err == nil {
		w.err = failed
	}
	w.st.add(st)
	w.mu.Unlock()
}
