package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/policy"
	"adaptbf/internal/sim"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// liveBucketDepth is the per-rule TBF bucket depth of every wall-clock
// cell. Wall-clock runs need token deadlines well above Go timer jitter
// or depth-capped buckets discard tokens on every oversleep; 16 (vs the
// simulator's Lustre-default 3) absorbs that jitter.
const liveBucketDepth = 16

// A placement decides where a wall-clock cell's servers run: goroutines
// in this process reached over pipes (ClusterBackend), or adaptbf-node
// processes reached over TCP (RemoteBackend). runLiveCell consults it at
// setup and teardown only — between the two, runners talk straight to
// the transport.Callers it handed out.
type placement interface {
	// startCoord starts the cell's GIFT coordinator; targets started
	// afterwards consult it. stopCoord returns its final state.
	startCoord() error
	stopCoord() cluster.NodeStats
	// startTarget starts storage target i as cfg describes. Called again
	// for an i whose target crashed, it restarts the target where the
	// clients already dialed expect it.
	startTarget(i int, cfg cluster.ServerConfig) (liveTarget, error)
	// budget is what a runner spends on a transport failure: a bound on
	// each RPC attempt, how many more attempts a failed one gets, and
	// how far apart they start.
	budget() (rpcTimeout time.Duration, retries int, backoff time.Duration)
	// release stops whatever is still running; runLiveCell defers it.
	release()
}

// A liveTarget is one started storage target as the runner sees it.
type liveTarget struct {
	dial func() transport.Caller // opens one client connection
	// stop quiesces and closes the target and returns its final stats:
	// zero when it died without reporting any.
	stop func() cluster.NodeStats
	// crash kills the target with no drain and no stats; nil when the
	// placement has nothing to kill.
	crash func()
	// drainObs pulls the spans and metrics a target accumulated outside
	// this process; nil when it records into the cell's own sinks.
	drainObs func() (cluster.ObsDrain, bool)
}

// liveRecorder assembles simulator-shaped metrics from concurrent live
// RPC completions. One per cell; the mutex serializes observers from
// every runner goroutine. Both halves fold as samples arrive — bytes
// into timeline bins, latencies into per-job digests — so a cell's
// memory and teardown do not grow with the RPCs it served.
type liveRecorder struct {
	mu        sync.Mutex
	epoch     time.Time
	speedup   float64
	timeline  *metrics.Timeline
	latencies *metrics.LatencyRecorder
}

// now reports OSS time since the cell epoch.
func (r *liveRecorder) now() time.Duration {
	return time.Duration(float64(time.Since(r.epoch)) * r.speedup)
}

// observer returns the JobRunner.Observe hook for one job.
func (r *liveRecorder) observer(jobID string) func(bytes int64, latency time.Duration) {
	idx := r.timeline.JobIndex(jobID)
	lidx := r.latencies.JobIndex(jobID)
	return func(bytes int64, latency time.Duration) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.timeline.RecordIdx(idx, int64(r.now()), bytes)
		r.latencies.RecordIdx(lidx, time.Duration(float64(latency)*r.speedup))
	}
}

// runLiveCell executes one wall-clock cell: cluster.Servers started
// through pl, one cluster.JobRunner per job driving the scenario's
// workload at them as real concurrent RPC traffic. oss carries the
// backend's own server settings (device, speedup, gate striping); the
// cell's policy, admission and observability are filled in here.
//
// Results are in OSS time — wall-clock scaled by the speedup — so an
// accelerated run's makespans, latencies, and MiB/s stay commensurate
// with the token rates and with simulator cells. A cell ends when every
// bounded job finishes, when the matrix Duration elapses in OSS time
// (Done stays false, like the simulator hitting its cap — which is how
// unbounded workloads are bounded), or when ctx is canceled (the cell
// fails with ctx.Err()).
func runLiveCell(ctx context.Context, spec CellSpec, oss cluster.OSSConfig, pl placement) (CellOutcome, error) {
	if err := ctx.Err(); err != nil {
		return CellOutcome{}, err
	}
	desc, ok := policy.Lookup(spec.Cell.Policy)
	if !ok {
		return CellOutcome{}, fmt.Errorf("harness: policy %v has no live implementation (supported: %s)", spec.Cell.Policy, policy.Flags())
	}
	if spec.Scenario.Jobs == nil {
		return CellOutcome{}, fmt.Errorf("harness: a wall-clock backend cannot run streaming scenario %s; use -backend sim", spec.Cell.Scenario)
	}
	if spec.RecordDir != "" {
		return CellOutcome{}, fmt.Errorf("harness: trace recording needs the deterministic sim backend")
	}
	jobs := spec.Scenario.Jobs(spec.Cell.Params())
	if len(jobs) == 0 {
		return CellOutcome{}, fmt.Errorf("harness: scenario %s produced no jobs", spec.Cell.Scenario)
	}
	nodes := make(map[string]int, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return CellOutcome{}, err
		}
		nodes[j.ID] = j.Nodes
	}
	if oss.Speedup <= 0 {
		oss.Speedup = 1
	}
	speedup := oss.Speedup
	scaleWorkloadTimes(jobs, speedup)

	// One observability scope per cell, in OSS time like the results.
	// In-process servers record into it directly (each on its own trace
	// thread); servers in other processes are drained into it at teardown.
	var cellObs *obs.CellObs
	if spec.Obs {
		epoch := time.Now()
		cellObs = &obs.CellObs{
			Tracer:  obs.NewTracer(func() int64 { return int64(float64(time.Since(epoch)) * speedup) }),
			Metrics: obs.NewRegistry(),
		}
	}

	// The coordinator first (agents reach for it as they start), then one
	// server per target.
	defer pl.release()
	if desc.Control == policy.CentralCoordinator {
		if err := pl.startCoord(); err != nil {
			return CellOutcome{}, err
		}
	}
	if oss.Device == (device.Params{}) {
		oss.Device = device.Default()
	}
	oss.BucketDepth = liveBucketDepth
	oss.Admission = spec.Admission
	oss.Obs = cellObs
	serverCfg := func(i int) cluster.ServerConfig {
		cfg := cluster.ServerConfig{
			OSS:      oss,
			Policy:   spec.Cell.Policy,
			MaxRate:  spec.MaxTokenRate,
			Period:   spec.Period,
			SFQDepth: spec.SFQDepth,
			Nodes:    nodes,
		}
		cfg.OSS.ObsTID = i
		if k := spec.Faults.StragglerFactor; i == 0 && k > 1 {
			// The straggler mode: the first OSS's device runs k× slower —
			// lower streaming rate, higher per-RPC costs — the slow-node
			// scenario the borrowing policies are supposed to route around.
			d := &cfg.OSS.Device
			d.BytesPerSec /= k
			d.PerRPCOverhead = time.Duration(float64(d.PerRPCOverhead) * k)
			d.ConcurrencyPenalty = time.Duration(float64(d.ConcurrencyPenalty) * k)
		}
		return cfg
	}
	targets := make([]liveTarget, spec.Cell.OSSes)
	for i := range targets {
		t, err := pl.startTarget(i, serverCfg(i))
		if err != nil {
			return CellOutcome{}, err
		}
		targets[i] = t
	}

	// The matrix Duration is OSS time; the wall-clock bound divides out
	// the speedup. Hitting it mirrors the simulator's duration cap: the
	// cell completes with Done=false rather than failing.
	wallCap := time.Duration(float64(spec.Duration) / speedup)

	// The cell clock starts here, after setup: the recorder and the
	// harness-side fault instants (crash, restart) share this epoch, so
	// fault marks line up with the reported timelines.
	rec := &liveRecorder{
		epoch:     time.Now(),
		speedup:   speedup,
		timeline:  metrics.NewTimeline(spec.Period),
		latencies: metrics.NewFoldingLatencyRecorder(),
	}

	runCtx, cancelRun := context.WithTimeout(ctx, wallCap)
	defer cancelRun()
	rpcTimeout, retries, backoff := pl.budget()
	outcomes := make([]liveJobOutcome, len(jobs))
	clients := make([]transport.Caller, 0, len(jobs)*len(targets))
	closeClients := func() {
		for _, c := range clients {
			c.Close()
		}
		clients = nil
	}
	defer closeClients()
	// Every runner is built before any starts: observer construction
	// interns into the recorders' tables, which must not race with an
	// earlier job's in-flight observations.
	runners := make([]*cluster.JobRunner, len(jobs))
	for ji, job := range jobs {
		conns := make([]transport.Caller, len(targets))
		for i, t := range targets {
			conns[i] = t.dial()
		}
		clients = append(clients, conns...)
		runners[ji] = &cluster.JobRunner{
			Job:          job,
			Targets:      conns,
			RPCTimeout:   rpcTimeout,
			Retries:      retries,
			RetryBackoff: backoff,
			Observe:      rec.observer(job.ID),
		}
	}

	// The crash/restart fault: kill the first target mid-run (no drain,
	// no stats — a crash), optionally restarting it where reconnecting
	// clients will find it.
	crashCtx, stopCrash := context.WithCancel(context.Background())
	var crashWG sync.WaitGroup
	defer func() {
		stopCrash()
		crashWG.Wait()
	}()
	if spec.Faults.CrashOSS {
		crashAfter := spec.Faults.CrashAfter
		if crashAfter <= 0 {
			crashAfter = wallCap / 4
		}
		mark := func(name string) {
			if cellObs != nil {
				cellObs.Tracer.Instant(name, "fault", 0, int64(rec.now()), nil)
			}
		}
		crashWG.Add(1)
		go func() {
			defer crashWG.Done()
			select {
			case <-crashCtx.Done():
				return
			case <-time.After(crashAfter):
			}
			targets[0].crash()
			mark("oss.crash")
			if spec.Faults.RestartAfter <= 0 {
				return
			}
			select {
			case <-crashCtx.Done():
				return
			case <-time.After(spec.Faults.RestartAfter):
			}
			t, err := pl.startTarget(0, serverCfg(0))
			if err != nil {
				return // clients keep failing against the dead target; the cell reports it
			}
			targets[0] = t // read again only after crashWG.Wait
			mark("oss.restart")
		}()
	}

	var wg sync.WaitGroup
	for ji, runner := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := runner.Run(runCtx)
			outcomes[ji] = liveJobOutcome{stats: stats, err: err, finishedAt: rec.now()}
		}()
	}
	wg.Wait()
	elapsed := rec.now()
	cancelRun()
	stopCrash()
	crashWG.Wait()

	// A cancel from above (the run's ctx or the per-cell timeout) fails
	// the cell; our own duration cap does not.
	if err := ctx.Err(); err != nil {
		return CellOutcome{}, err
	}
	res, err := foldLiveResult(spec, jobs, outcomes, rec, elapsed)
	if err != nil {
		return CellOutcome{}, err
	}

	// Harness-side transport resilience: the runners' reconnecting
	// clients and retry loops live on this side of the wire, so their
	// counters fold here.
	if cellObs != nil {
		var redials, retried int64
		for _, c := range clients {
			if rd, ok := c.(*transport.Redialer); ok {
				st := rd.Stats()
				if st.Dials > 1 {
					redials += st.Dials - 1
				}
				retried += st.Retries
			}
		}
		for _, jo := range outcomes {
			retried += jo.stats.Retries
		}
		cellObs.Metrics.Counter(obs.MetricRedials).Add(redials)
		cellObs.Metrics.Counter(obs.MetricRetries).Add(retried)
	}

	// Teardown, in the one order that waits for nothing: close every
	// client connection (a gracefully draining server waits for its open
	// ones), drain observability (stop ends the server it lives in), stop
	// each target and fold its final stats — device counters exist only
	// there, so a target that crashed for good contributes zeros — and
	// last the coordinator, once no agent can walk it.
	closeClients()
	var drained obs.Snapshot
	if cellObs != nil {
		for _, t := range targets {
			if t.drainObs == nil {
				continue
			}
			if d, ok := t.drainObs(); ok {
				cellObs.Tracer.Append(d.Events)
				drained.Merge(d.Snapshot)
			}
		}
	}
	for _, t := range targets {
		st := t.stop()
		res.DeviceBusy = append(res.DeviceBusy, time.Duration(st.BusySeconds*float64(time.Second)))
		// A GIFT agent's coordination cost, folded the way the simulator
		// counts it: one TickTimes entry per target walk per epoch (the
		// coordinator round-trip on the wire, deliberately unscaled by the
		// speedup) and the message and rule-op counters.
		res.TickTimes = append(res.TickTimes, st.WalkTimes...)
		res.RuleOps += st.RuleOps
		res.CtrlMsgs += st.CtrlMsgs
	}
	if desc.Control == policy.CentralCoordinator {
		st := pl.stopCoord()
		res.GIFTBankEntries = st.BankEntries
		res.GIFTCouponsOutstanding = st.CouponsOutstanding
	}
	if cellObs != nil {
		fillOutcomeCounters(cellObs.Metrics, res)
	}
	out := outcomeOf(res, spec.PerJobDigests)
	attachObs(&out, cellObs)
	if out.Obs != nil {
		out.Obs.Merge(drained)
	}
	return out, nil
}

// A liveJobOutcome is one job's end state in a wall-clock cell.
type liveJobOutcome struct {
	stats      cluster.JobStats
	err        error
	finishedAt time.Duration // OSS time; valid when err == nil
}

// scaleWorkloadTimes divides workload time parameters by the clock
// acceleration. They are OSS time, but JobRunner sleeps them on the raw
// wall clock: scaling makes an accelerated cell run the same OSS-time
// workload the simulator runs (otherwise a calibration pairing would
// partly measure the -speedup knob, not the substrate). Patterns are
// copied in place — Scenario.Jobs may share slices.
func scaleWorkloadTimes(jobs []workload.Job, speedup float64) {
	if speedup == 1 {
		return
	}
	scale := func(d time.Duration) time.Duration {
		if d <= 0 {
			return d
		}
		if s := time.Duration(float64(d) / speedup); s > 0 {
			return s
		}
		return 1 // keep positive so Pattern validation semantics hold
	}
	for ji := range jobs {
		procs := append([]workload.Pattern(nil), jobs[ji].Procs...)
		for pi := range procs {
			procs[pi].StartDelay = scale(procs[pi].StartDelay)
			procs[pi].BurstInterval = scale(procs[pi].BurstInterval)
		}
		jobs[ji].Procs = procs
	}
}

// foldLiveResult turns per-job outcomes into the simulator-shaped result
// a wall-clock cell reports (Done, finish times, cancellation vs
// failure).
func foldLiveResult(spec CellSpec, jobs []workload.Job, outcomes []liveJobOutcome, rec *liveRecorder, elapsed time.Duration) (*sim.Result, error) {
	res := &sim.Result{
		Policy:      spec.Cell.Policy,
		Timeline:    rec.timeline,
		Latencies:   rec.latencies,
		FinishTimes: make(map[string]time.Duration, len(jobs)),
		Elapsed:     elapsed,
		Done:        true,
	}
	var firstErr error
	for i, jo := range outcomes {
		res.ServedRPCs += uint64(jo.stats.RPCs)
		res.Rejected += uint64(jo.stats.Rejected)
		res.Shed += uint64(jo.stats.Shed)
		res.OfferedBytes += jo.stats.OfferedBytes
		res.GoodputBytes += jo.stats.Bytes
		switch {
		case jo.err == nil:
			if jobs[i].TotalBytes() > 0 {
				res.FinishTimes[jobs[i].ID] = jo.finishedAt
			} else {
				res.Done = false // unbounded job: ran to the duration cap
			}
		case errors.Is(jo.err, context.DeadlineExceeded) || errors.Is(jo.err, context.Canceled):
			res.Done = false // duration cap expired under this job
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("job %s: %w", jobs[i].ID, jo.err)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
