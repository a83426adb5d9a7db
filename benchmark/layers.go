package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/cluster"
	"adaptbf/internal/controller"
	"adaptbf/internal/core"
	"adaptbf/internal/des"
	"adaptbf/internal/edt"
	"adaptbf/internal/gift"
	"adaptbf/internal/harness"
	"adaptbf/internal/jobstats"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/rules"
	"adaptbf/internal/sfq"
	"adaptbf/internal/stats"
	"adaptbf/internal/tbf"
	"adaptbf/internal/transport"
	"adaptbf/internal/workgen"
)

// The direct drives: layers that only run inside sim.Run or inside an OSS
// have no seam to wrap, so each is driven through its exported functions
// on input shaped like the workloads'. Every drive gets the same short
// time slice; these are ledger entries to explain an end-to-end move, not
// bounded metrics.

// perOp calls fn(n) — n operations — repeatedly for about d and returns
// nanoseconds per operation. The first call warms and is not timed.
func perOp(d time.Duration, n int, fn func(n int)) float64 {
	fn(n)
	ops, start := 0, time.Now()
	for ops == 0 || time.Since(start) < d {
		fn(n)
		ops += n
	}
	return float64(time.Since(start)) / float64(ops)
}

func jobIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "job" + strconv.Itoa(i) + ".n" + strconv.Itoa(1+i%32)
	}
	return out
}

func driveLayers(e env, rep *childReport) error {
	d := e.sz.slice
	for _, drive := range []func(env, time.Duration, *childReport) error{
		driveWorkgen, driveDES, driveSchedulers, driveControl, driveAdmission,
		driveMetrics, driveTransport, driveCluster, driveObs,
	} {
		if err := drive(e, d, rep); err != nil {
			return err
		}
	}
	return nil
}

func driveWorkgen(e env, d time.Duration, rep *childReport) error {
	var spec *workgen.Spec
	var err error
	load := perOp(d, 1, func(int) {
		if spec, err = workgen.LoadSpec(e.streamSpecPath()); err == nil {
			_, err = harness.ScenarioFromSpec(spec)
		}
	})
	if err != nil {
		return err
	}
	rep.add("workgen.spec_load_ms", load/1e6)

	gen, err := workgen.NewGenerator(spec, e.sz.streamScale, e.seed)
	if err != nil {
		return err
	}
	var job workgen.Job
	start := time.Now()
	for gen.Next(&job) {
	}
	rep.add("workgen.next_ns_per_job", float64(time.Since(start))/float64(gen.MaxJobs()))
	return gen.Err()
}

// driveDES runs the event loop the way the simulator loads it: a fixed
// population of timers, each rescheduling itself through the pre-bound
// callback path.
func driveDES(e env, d time.Duration, rep *childReport) error {
	const timers = 64
	events := int64(5 * e.sz.bulk)
	var loop des.Loop
	var tick func(arg any, n int64)
	tick = func(arg any, n int64) {
		if int64(loop.Processed()) < events {
			loop.AfterCall(time.Duration(1+n)*time.Microsecond, tick, nil, n)
		}
	}
	for i := int64(0); i < timers; i++ {
		loop.AfterCall(time.Duration(1+i)*time.Microsecond, tick, nil, i)
	}
	m0, start := mallocs(), time.Now()
	loop.Run()
	el := time.Since(start)
	rep.add("des.events_per_s", float64(loop.Processed())/el.Seconds())
	rep.add("des.allocs_per_event", float64(mallocs()-m0)/float64(loop.Processed()))
	return nil
}

// A gate is the enqueue/dequeue contract the three schedulers share.
type gate interface {
	Enqueue(req *tbf.Request, now int64)
	Dequeue(now int64) (*tbf.Request, int64, bool)
}

// enqDeq times one enqueue plus one dequeue with `pending` requests
// already queued, cycling over jobs interned the way the simulator interns
// them. Requests are recycled only once dequeued, as the simulator's pool
// does. served runs after every dequeue (SFQ needs its completion call).
func enqDeq(d time.Duration, g gate, jobs []string, pending int, served func()) (float64, error) {
	now, next := int64(0), 0
	var free []*tbf.Request
	enqueue := func() {
		r := &tbf.Request{}
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
		}
		job := next % len(jobs)
		*r = tbf.Request{JobID: jobs[job], Job: int32(job), Op: tbf.OpWrite, Bytes: 64 << 10, Stream: next}
		next++
		now += 1000
		g.Enqueue(r, now)
	}
	for i := 0; i < pending; i++ {
		enqueue()
	}
	var err error
	ns := perOp(d, 256, func(n int) {
		for i := 0; i < n; i++ {
			enqueue()
			r, _, ok := g.Dequeue(now)
			if !ok || r == nil {
				err = fmt.Errorf("%T: dequeue found nothing eligible with %d queued", g, pending+1)
				return
			}
			free = append(free, r)
			if served != nil {
				served()
			}
		}
	})
	return ns, err
}

func driveSchedulers(e env, d time.Duration, rep *childReport) error {
	jobs := jobIDs(8)
	ruled, fallback := tbf.NewScheduler(tbf.Config{}), tbf.NewScheduler(tbf.Config{})
	ruled.SetJobCount(len(jobs))
	fallback.SetJobCount(len(jobs))
	for i, id := range jobs {
		r := tbf.Rule{Name: "r" + strconv.Itoa(i), Match: tbf.Match{JobIDs: []string{id}}, Rate: 1e9, Order: i}
		if err := ruled.StartRule(r, 0); err != nil {
			return err
		}
	}
	fair := sfq.New(1, func(string) float64 { return 1 })
	fair.SetJobs(jobs)
	paced := edt.New(edt.Config{Rates: func(string) float64 { return 1 << 50 }})
	paced.SetJobs(jobs)
	for _, g := range []struct {
		name   string
		g      gate
		served func()
	}{
		{"tbf.enq_deq_ns", ruled, nil},
		{"tbf.fallback_enq_deq_ns", fallback, nil},
		{"sfq.enq_deq_ns", fair, fair.Complete},
		{"edt.enq_deq_ns", paced, nil},
	} {
		ns, err := enqDeq(d, g.g, jobs, 64, g.served)
		if err != nil {
			return err
		}
		rep.add(g.name, ns)
	}

	var err error
	i := 0
	rep.add("tbf.change_rule_ns", perOp(d, 64, func(n int) {
		for ; n > 0 && err == nil; n-- {
			i++
			err = ruled.ChangeRule("r"+strconv.Itoa(i%len(jobs)), 1e9+float64(i%7), i%len(jobs), int64(i))
		}
	}))
	return err
}

// activities builds n active jobs with node counts and demands spread the
// way the repo's allocator benchmarks spread them.
func activities(n int) []core.Activity {
	acts := make([]core.Activity, n)
	for i, id := range jobIDs(n) {
		acts[i] = core.Activity{Job: core.JobID(id), Nodes: 1 + i%32, Demand: int64(1 + (i*37)%900)}
	}
	return acts
}

func driveControl(e env, d time.Duration, rep *childReport) error {
	const period = 100 * time.Millisecond
	shift := func(acts []core.Activity, round int) {
		for j := range acts {
			acts[j].Demand = int64(1 + (round+j*53)%900)
		}
	}
	// The paper's §IV-G axis: allocation time against active jobs.
	for _, n := range []int{10, 1000} {
		alloc := core.New(core.Config{MaxRate: 500 * float64(1+n/4), Period: period})
		acts := activities(n)
		round := 0
		rep.add("core.allocate_us.j"+strconv.Itoa(n), perOp(d, 1, func(int) {
			round++
			shift(acts, round)
			alloc.Allocate(acts)
		})/1e3)
	}

	const n = 100
	ids := jobIDs(n)
	var tracker jobstats.Tracker
	observe := func() {
		for i, id := range ids {
			for k := 0; k <= i%4; k++ {
				tracker.Observe(id, 64<<10)
			}
		}
	}
	rep.add("jobstats.observe_ns", perOp(d, 1, func(int) { observe() })/float64(n*5/2))
	tracker.Clear()

	// One whole control cycle: snapshot, allocate, reconcile rules, clear.
	sched := tbf.NewScheduler(tbf.Config{})
	ctl := controller.New(controller.Config{
		Stats:  &tracker,
		Nodes:  controller.NodeMapperFunc(func(id string) int { return 1 + len(id)%4 }),
		Alloc:  core.New(core.Config{MaxRate: 500 * n / 4, Period: period}),
		Daemon: rules.New(sched, rules.Config{}),
	})
	now := int64(0)
	var tickErr error
	rep.add("controller.tick_us.j100", perOp(d, 1, func(int) {
		observe()
		now += int64(period)
		if r := ctl.Tick(now); r.Err != nil {
			tickErr = r.Err
		}
	})/1e3)
	if tickErr != nil {
		return tickErr
	}

	// Rule reconciliation alone, every job's rate changing every round.
	alloc := core.New(core.Config{MaxRate: 500 * n / 4, Period: period})
	acts := activities(n)
	rounds := [2][]core.Allocation{}
	for r := range rounds {
		shift(acts, r*17)
		rounds[r] = append([]core.Allocation(nil), alloc.Allocate(acts)...)
	}
	daemon := rules.New(tbf.NewScheduler(tbf.Config{}), rules.Config{})
	round := 0
	var applyErr error
	rep.add("rules.apply_us.j100", perOp(d, 1, func(int) {
		round++
		if _, err := daemon.Apply(rounds[round%2], int64(round)); err != nil {
			applyErr = err
		}
	})/1e3)
	if applyErr != nil {
		return applyErr
	}

	bank := gift.New(period)
	demand := make([]gift.Activity, n)
	for i, id := range ids {
		demand[i] = gift.Activity{Job: id, Demand: int64(1 + (i*37)%900)}
	}
	rep.add("gift.allocate_us.j100", perOp(d, 1, func(int) { bank.Allocate(demand, 500*n/4) })/1e3)
	return nil
}

func driveAdmission(e env, d time.Duration, rep *childReport) error {
	for _, policy := range []string{admission.PolicyTokenBucket, admission.PolicyDeadlineQueue} {
		cfg, err := admission.Parse(policy)
		if err != nil {
			return err
		}
		adm := cfg.New()
		now := int64(0)
		rep.add("admission.admit_ns."+policy, perOp(d, 256, func(n int) {
			for i := 0; i < n; i++ {
				now += 1000
				adm.Admit(admission.Request{Job: "big.n08", Bytes: 64 << 10, Queued: i % 64}, now)
			}
		}))
	}
	return nil
}

func driveMetrics(e env, d time.Duration, rep *childReport) error {
	// The materialized latency store: record a cell's worth of samples,
	// then walk them into a digest — the post-run walk sim-grid pays.
	samples := e.sz.bulk
	var rec metrics.LatencyRecorder
	idx := rec.JobIndex("big.n08")
	start := time.Now()
	for i := 0; i < samples; i++ {
		rec.RecordIdx(idx, time.Duration(50+i%4000)*time.Microsecond)
	}
	rep.add("metrics.record_ns", float64(time.Since(start))/float64(samples))
	var dig stats.Digest
	rep.add("metrics.feed_digest_ns_per_sample", perOp(d, samples, func(int) {
		dig.Reset()
		rec.FeedDigest(&dig)
	}))

	i := 0
	rep.add("stats.digest_add_ns", perOp(d, 1024, func(n int) {
		for ; n > 0; n-- {
			i++
			dig.Add(time.Duration(50+i%4000) * time.Microsecond)
		}
	}))
	var into stats.Digest
	rep.add("stats.digest_merge_us", perOp(d, 16, func(n int) {
		for ; n > 0; n-- {
			into.Merge(&dig)
		}
	})/1e3)
	return nil
}

// echo answers every request at once: what is left is the transport.
var echo = transport.HandlerFunc(func(req transport.Request, reply func(transport.Reply)) {
	reply(transport.Reply{Bytes: req.Bytes})
})

// roundTrips keeps `window` calls in flight on c for about d and returns
// the mean time per completed call, in nanoseconds.
func roundTrips(d time.Duration, c *transport.Client, window int, req transport.Request) (float64, error) {
	ctx := context.Background()
	var err error
	ns := perOp(d, window, func(n int) {
		pending := make([]<-chan transport.Reply, 0, n)
		for i := 0; i < n; i++ {
			ch, _, e := c.DoCtx(ctx, req)
			if e != nil {
				err = e
				return
			}
			pending = append(pending, ch)
		}
		for _, ch := range pending {
			if r := <-ch; r.Err != "" {
				err = fmt.Errorf("transport: %s", r.Err)
			}
		}
	})
	return ns, err
}

func driveTransport(e env, d time.Duration, rep *childReport) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		transport.Serve(l, echo) // returns once the listener closes
	}()
	defer func() {
		l.Close()
		<-served
	}()

	small := transport.Request{JobID: "big.n08", Op: uint8(tbf.OpWrite), Bytes: 64 << 10}
	large := small
	large.Payload = make([]byte, 1<<20)

	dialStart := time.Now()
	tcp, err := transport.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer tcp.Close()
	if _, err := tcp.Call(small); err != nil {
		return err
	}
	rep.add("transport.dial_ms", ms(time.Since(dialStart)))
	pipe := transport.Pipe(echo)
	defer pipe.Close()

	// transport.pipe_rtt_us is measured with the RPC time budget, in driveCluster.
	rtt, err := roundTrips(d, tcp, 1, small)
	if err != nil {
		return err
	}
	rep.add("transport.tcp_rtt_us", rtt/1e3)
	for _, conn := range []struct {
		name string
		c    *transport.Client
	}{{"pipe", pipe}, {"tcp", tcp}} {
		windowed, err := roundTrips(d, conn.c, 16, small)
		if err != nil {
			return err
		}
		rep.add("transport."+conn.name+"_rps", 1e9/windowed)
		big, err := roundTrips(d, conn.c, 1, large)
		if err != nil {
			return err
		}
		rep.add("transport."+conn.name+"_rtt_us.payload1m", big/1e3)
	}

	const calls = 2000
	m0 := mallocs()
	for i := 0; i < calls; i++ {
		if _, err := pipe.Call(small); err != nil {
			return err
		}
	}
	rep.add("transport.allocs_per_rpc", float64(mallocs()-m0)/calls)
	return nil
}

func driveCluster(e env, d time.Duration, rep *childReport) error {
	oss := cluster.NewOSS(cluster.OSSConfig{Device: fastDevice, BucketDepth: 16, Speedup: 1})
	defer oss.Close()
	req := transport.Request{JobID: "big.n08", Op: uint8(tbf.OpWrite), Bytes: 64 << 10}

	// The live RPC's time budget, one RPC in flight: the wire alone (echo
	// handler), the server alone (Handle called directly: admit, gate,
	// dispatch, device, reply), and the server behind the wire — the live
	// workloads' critical path. The three alternate in short rounds, so the
	// host's drift lands on all alike and the parts can be held against the
	// whole.
	wire, both := transport.Pipe(echo), transport.Pipe(oss)
	defer wire.Close()
	defer both.Close()
	replies := make(chan transport.Reply, 1)
	reply := func(r transport.Reply) { replies <- r }
	const rounds = 5
	for i := 0; i < rounds; i++ {
		rtt, err := roundTrips(d/rounds, wire, 1, req)
		if err != nil {
			return err
		}
		rep.add("transport.pipe_rtt_us", rtt/1e3)
		rep.add("cluster.handle_rtt_us", perOp(d/rounds, 1, func(int) {
			oss.Handle(req, reply)
			if r := <-replies; r.Err != "" {
				err = fmt.Errorf("cluster: %s", r.Err)
			}
		})/1e3)
		if err != nil {
			return err
		}
		if rtt, err = roundTrips(d/rounds, both, 1, req); err != nil {
			return err
		}
		rep.add("cluster.rpc_rtt_us", rtt/1e3)
	}

	window := max(15*d/10, time.Millisecond)
	for _, name := range cluster.GateThroughputNames() {
		var best float64
		for i := 0; i < 3; i++ {
			ops, err := cluster.MeasureGateThroughput(name, window)
			if err != nil {
				return err
			}
			best = max(best, ops)
		}
		rep.add("cluster.gate_ops_per_s."+name, best)
	}
	return nil
}

func driveObs(e env, d time.Duration, rep *childReport) error {
	reg := obs.NewRegistry()
	hist, ctr := reg.Histogram("bench_ns"), reg.Counter("bench_total")
	i := int64(0)
	rep.add("obs.histogram_observe_ns", perOp(d, 1024, func(n int) {
		for ; n > 0; n-- {
			i++
			hist.Observe(50_000 + i%4_000_000)
		}
	}))
	rep.add("obs.counter_add_ns", perOp(d, 1024, func(n int) {
		for ; n > 0; n-- {
			ctr.Add(1)
		}
	}))
	return nil
}
