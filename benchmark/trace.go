package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"adaptbf/internal/harness"
	"adaptbf/internal/obs"
	"adaptbf/internal/sim"
	"adaptbf/internal/workgen"
	"adaptbf/internal/workload"
)

// The traced run measures the layers from outside the program: the
// benchmark wraps the public seams (Backend.RunCell, Scenario.Jobs,
// workgen.Stream.Next, and the calls around harness.Run) with its own
// spans, and drives the layers no seam reaches through their exported
// functions (layers.go). Spans go to an obs.Tracer and out as a Chrome
// trace; in-program tracing is a later change.

// spans records nested spans. Traced passes run with one harness worker,
// so spans nest strictly in time and a stack gives every span its parent.
type spans struct {
	tr *obs.Tracer

	mu    sync.Mutex
	next  uint64
	stack []uint64
}

func newSpans() *spans {
	epoch := time.Now()
	return &spans{tr: obs.NewTracer(func() int64 { return int64(time.Since(epoch)) })}
}

// in opens a span under the innermost open one and returns the function
// that closes it. cat is the workload; args may carry counts measured at
// the same boundary. A nil *spans records nothing: untraced passes run
// the same code.
func (s *spans) in(name, cat string, args map[string]any) func() {
	if s == nil {
		return func() {}
	}
	s.mu.Lock()
	s.next++
	id, parent := s.next, s.top()
	s.stack = append(s.stack, id)
	s.mu.Unlock()
	start := s.tr.Now()
	return func() {
		end := s.tr.Now()
		s.mu.Lock()
		s.stack = s.stack[:len(s.stack)-1]
		s.mu.Unlock()
		s.record(name, cat, id, parent, start, end, args)
	}
}

// child records time accumulated in many short calls (too short to span
// one by one) as a single child of the innermost open span.
func (s *spans) child(name, cat string, d time.Duration, args map[string]any) {
	s.mu.Lock()
	s.next++
	id, parent := s.next, s.top()
	s.mu.Unlock()
	end := s.tr.Now()
	s.record(name, cat, id, parent, end-int64(d), end, args)
}

func (s *spans) top() uint64 {
	if len(s.stack) == 0 {
		return 0
	}
	return s.stack[len(s.stack)-1]
}

func (s *spans) record(name, cat string, id, parent uint64, start, end int64, args map[string]any) {
	if args == nil {
		args = map[string]any{}
	}
	args["id"], args["parent"] = id, parent
	s.tr.Span(name, cat, 0, start, end, args)
}

// A spanSum totals the spans sharing a key: how many, their duration, and
// their self time (duration minus what their child spans cover).
type spanSum struct {
	n    int
	dur  time.Duration
	self time.Duration
	args map[string]float64 // numeric args, summed
}

// sum folds events into totals keyed by key(event); events key maps to ""
// are skipped.
func sumSpans(events []obs.Event, key func(obs.Event) string) map[string]*spanSum {
	covered := map[uint64]int64{}
	for _, e := range events {
		if p, _ := e.Args["parent"].(uint64); p != 0 {
			covered[p] += e.Dur
		}
	}
	out := map[string]*spanSum{}
	for _, e := range events {
		k := key(e)
		if k == "" {
			continue
		}
		s := out[k]
		if s == nil {
			s = &spanSum{args: map[string]float64{}}
			out[k] = s
		}
		id, _ := e.Args["id"].(uint64)
		s.n++
		s.dur += time.Duration(e.Dur)
		s.self += time.Duration(e.Dur - covered[id])
		for name, v := range e.Args {
			if f, ok := v.(float64); ok {
				s.args[name] += f
			}
		}
	}
	return out
}

// nextSampleEvery thins the Stream.Next timing: a generator call costs
// about as much as reading the clock twice, so timing every call would
// cost more than the layer it measures.
const nextSampleEvery = 64

// clockCost is what timing an empty call reads, measured once: a
// generator call is short enough that leaving the clock's own cost in
// would inflate the layer's share by half.
var clockCost = sync.OnceValue(func() time.Duration {
	const reads = 10000
	var sum time.Duration
	for i := 0; i < reads; i++ {
		sum += time.Since(time.Now())
	}
	return sum / reads
})

// tracedStream accumulates (sampled) time spent generating jobs.
type tracedStream struct {
	workgen.Stream
	calls   int64
	sampled time.Duration
}

func (t *tracedStream) Next(j *workgen.Job) bool {
	t.calls++
	if t.calls%nextSampleEvery != 0 {
		return t.Stream.Next(j)
	}
	start := time.Now()
	ok := t.Stream.Next(j)
	t.sampled += max(time.Since(start)-clockCost(), 0)
	return ok
}

// tracedBackend spans every RunCell, counting the cell's events and RPCs —
// and, for stream cells, its allocations — at the same boundary.
type tracedBackend struct {
	harness.Backend
	sp     *spans
	cat    string
	stream *tracedStream // the running cell's stream, if it opened one
}

func (b *tracedBackend) RunCell(ctx context.Context, spec harness.CellSpec) (harness.CellOutcome, error) {
	args := map[string]any{"policy": policyName(spec.Cell.Policy)}
	b.stream = nil
	// Reading the allocation count stops the world for tens of
	// microseconds: nothing to a 100 ms stream cell, a percent of a grid
	// cell, so only stream cells pay for it.
	var m0 uint64
	if spec.Scenario.Stream != nil {
		m0 = mallocs()
	}
	done := b.sp.in("backend.RunCell", b.cat, args)
	out, err := b.Backend.RunCell(ctx, spec)
	if st := b.stream; st != nil {
		b.sp.child("workgen.Next", b.cat, st.sampled*nextSampleEvery, map[string]any{"calls": float64(st.calls)})
		args["mallocs"] = float64(mallocs() - m0)
	}
	if out.Result != nil {
		args["events"] = float64(out.Result.Events)
		args["rpcs"] = float64(out.Result.ServedRPCs)
		args["makespan_ns"] = float64(out.Result.Elapsed)
	}
	done()
	return out, err
}

// traced returns the plan with every seam wrapped. The copy shares nothing
// mutable with p, so traced and untraced passes can alternate.
func (p *plan) traced(sp *spans) *plan {
	t := *p
	tb := &tracedBackend{Backend: p.backend, sp: sp, cat: p.name}
	t.backend = tb
	t.opts = []harness.RunOption{harness.WithBackend(tb), harness.WithWorkers(1)}
	t.timed = make([]harness.Matrix, len(p.timed))
	for i, m := range p.timed {
		t.timed[i] = m
		t.timed[i].Scenarios = tb.wrap(m.Scenarios)
	}
	return &t
}

// wrap spans each scenario's job builder and meters its stream.
func (tb *tracedBackend) wrap(scenarios []harness.Scenario) []harness.Scenario {
	sp, cat := tb.sp, tb.cat
	out := make([]harness.Scenario, len(scenarios))
	for i, sc := range scenarios {
		if jobs := sc.Jobs; jobs != nil {
			sc.Jobs = func(cp harness.CellParams) []workload.Job {
				defer sp.in("scenario.Jobs", cat, nil)()
				return jobs(cp)
			}
		}
		if stream := sc.Stream; stream != nil {
			sc.Stream = func(cp harness.CellParams) (workgen.Stream, error) {
				src, err := stream(cp)
				if err != nil {
					return nil, err
				}
				tb.stream = &tracedStream{Stream: src}
				return tb.stream, nil
			}
		}
		out[i] = sc
	}
	return out
}

// primaryMetric names the end-to-end metric the trace overhead is judged
// on: wall time where the CPU is the simulator's alone, CPU per RPC where
// throughput wanders with the scheduler.
func (p *plan) primaryMetric() string {
	if p.sim {
		return "pass_s"
	}
	return "cpu_us_per_rpc"
}

// pct is (a-b)/b in percent.
func pct(a, b float64) float64 { return 100 * (a - b) / b }

// tracer bundles what the traced run accumulates.
type tracer struct {
	e   env
	sp  *spans
	rep *childReport
}

// runTraced produces the whole per-layer ledger in one process: a traced
// and an untraced pass of every workload at reduced size, then the direct
// layer drives, then the span file.
func runTraced(e env, spanFile string) (*childReport, error) {
	// Reduced sizes: the ledger has some eighty numbers to fit in one run.
	e.sz.gridSeeds = min(e.sz.gridSeeds, 2)
	e.sz.remoteDur /= 2
	t := &tracer{e: e, sp: newSpans(), rep: &childReport{}}
	for _, step := range []func() error{
		t.simGrid, t.simStream, t.liveFlatout, t.livePaced, t.livePolicies,
		func() error { return driveLayers(e, t.rep) },
		t.liveSerial, t.remoteCell, // last: they pin the process to one CPU for good
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := t.writeSpans(spanFile); err != nil {
		return nil, err
	}
	t.rep.SpanFile = spanFile
	return t.rep, nil
}

// pair runs the workload untraced and traced, alternating, `rounds` times,
// and returns the plan and the last pass of each kind. The overhead compares
// the best (lowest) primary metric of each kind: the minimum sheds scheduler
// noise, which is larger than the overhead being measured.
func (t *tracer) pair(name string, rounds int) (p *plan, plain, traced passResult, err error) {
	if p, err = buildPlan(name, t.e); err != nil {
		return nil, plain, traced, err
	}
	tp := p.traced(t.sp)
	if len(p.warm.Scenarios) > 0 {
		if _, err = p.runPass(p.warm, nil); err != nil {
			return nil, plain, traced, err
		}
	}
	var plains, traceds []float64
	for i := 0; i < rounds; i++ {
		which := i % len(p.timed)
		if plain, err = p.runPass(p.timed[which], nil); err != nil {
			return nil, plain, traced, err
		}
		if traced, err = tp.runPass(tp.timed[which], t.sp); err != nil {
			return nil, plain, traced, err
		}
		t.rep.count(p, plain.res)
		t.rep.count(p, traced.res)
		pm := p.metrics(plain)
		if !p.sim {
			// The tail is too unsteady on this class of host to carry a
			// bound, so it is kept here, beside the layers that shape it.
			t.rep.add("cluster.lat_p99_us."+name, pm["lat_p99_us"])
		}
		plains = append(plains, pm[p.primaryMetric()])
		traceds = append(traceds, p.metrics(traced)[p.primaryMetric()])
	}
	t.rep.add("bench.trace_overhead_pct."+name, pct(slices.Min(traceds), slices.Min(plains)))
	return p, plain, traced, nil
}

// spanTotals holds a workload's spans summed by name; RunCell spans are
// also summed per policy, under "backend.RunCell/<policy>".
type spanTotals map[string]*spanSum

func (t *tracer) totals(workload string) spanTotals {
	events := t.sp.tr.Events()
	out := spanTotals(sumSpans(events, func(e obs.Event) string {
		if e.Cat != workload {
			return ""
		}
		return e.Name
	}))
	for policy, sum := range sumSpans(events, func(e obs.Event) string {
		if e.Cat != workload || e.Name != "backend.RunCell" {
			return ""
		}
		return e.Args["policy"].(string)
	}) {
		out["backend.RunCell/"+policy] = sum
	}
	return out
}

// of returns the total for one span name (zero when there were no such spans).
func (m spanTotals) of(name string) *spanSum {
	if s := m[name]; s != nil {
		return s
	}
	return &spanSum{args: map[string]float64{}}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (t *tracer) simGrid() error {
	const name = "sim-grid"
	p, plain, traced, err := t.pair(name, 6)
	if err != nil {
		return err
	}
	done := t.sp.in("MatrixResult.Fingerprint", name, nil)
	traced.res.Fingerprint()
	done()
	tot := t.totals(name)
	all, run := tot.of("backend.RunCell"), tot.of("harness.Run")
	passes := float64(run.n)
	t.rep.add("harness.run_overhead_pct", 100*float64(run.dur-all.dur)/float64(run.dur))
	t.rep.add("harness.fingerprint_ms", ms(tot.of("MatrixResult.Fingerprint").dur))
	t.rep.add("workload.build_us_per_cell", float64(tot.of("scenario.Jobs").dur)/1e3/float64(all.n))
	t.rep.add("sim.events_per_s."+name, all.args["events"]/all.self.Seconds())
	for _, pol := range policies {
		c := tot.of("backend.RunCell/" + pol.name)
		t.rep.add("sim.cell_ms."+pol.name, ms(c.self)/float64(c.n))
	}
	t.rep.add("sim.allocs_per_cell."+name, float64(plain.mallocs)/float64(len(plain.res.Cells)))
	t.rep.add("report.from_matrix_ms", ms(tot.of("report.FromMatrix").dur)/passes)
	t.rep.add("report.json_ms", ms(tot.of("Document.JSON").dur)/passes)
	t.rep.add("report.json_bytes", float64(plain.jsonBytes))

	// The pool and the observability layer, each against the plain pass.
	pooled, err := p.runPass(p.timed[0], nil, harness.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return err
	}
	t.rep.add("harness.pool_speedup", plain.wall.Seconds()/pooled.wall.Seconds())
	// Observability multiplies a sim cell's cost, so it is priced on the
	// first OSS count alone.
	m := p.timed[0]
	m.OSSes = m.OSSes[:1]
	quiet, err := p.runPass(m, nil)
	if err != nil {
		return err
	}
	observed, err := p.runPass(m, nil, harness.WithObs())
	if err != nil {
		return err
	}
	t.rep.add("obs.enabled_overhead_pct."+name, pct(observed.wall.Seconds(), quiet.wall.Seconds()))
	return nil
}

func (t *tracer) simStream() error {
	const name = "sim-stream"
	_, plain, _, err := t.pair(name, 3)
	if err != nil {
		return err
	}
	tot := t.totals(name)
	all := tot.of("backend.RunCell")
	t.rep.add("workgen.stream_share_pct", 100*float64(tot.of("workgen.Next").dur)/float64(all.dur))
	t.rep.add("sim.events_per_s."+name, all.args["events"]/all.self.Seconds())
	for _, pol := range policies {
		c := tot.of("backend.RunCell/" + pol.name)
		t.rep.add("sim.stream_cell_ms."+pol.name, ms(c.self)/float64(c.n))
		t.rep.add("sim.stream_allocs_per_cell."+pol.name, c.args["mallocs"]/float64(c.n))
	}
	t.rep.add("sim.allocs_per_cell."+name, float64(plain.mallocs)/float64(len(plain.res.Cells)))
	return nil
}

func (t *tracer) liveFlatout() error {
	const name = "live-flatout"
	p, plain, _, err := t.pair(name, 3)
	if err != nil {
		return err
	}
	all := t.totals(name).of("backend.RunCell")
	t.rep.add("harness.live_cell_overhead_ms", ms(all.dur-time.Duration(all.args["makespan_ns"]))/float64(all.n))
	observed, err := p.runPass(p.timed[0], nil, harness.WithObs())
	if err != nil {
		return err
	}
	t.rep.add("obs.enabled_overhead_pct."+name,
		pct(p.metrics(observed)["cpu_us_per_rpc"], p.metrics(plain)["cpu_us_per_rpc"]))
	return nil
}

// livePaced keeps the mostly idle regime on the ledger: bursts of eight
// 2 ms apart, some 5% of capacity. It was an end-to-end workload until its
// numbers turned out to be the hypervisor's: what an RPC costs after the
// process has idled is how the host wakes a halted vCPU and what its
// neighbours left in the cache (CPU per RPC spread 24-41% run to run, past
// any bound). The figures are worth seeing beside the layers; they cannot
// carry a bound.
func (t *tracer) livePaced() error {
	p, err := buildPlan("live-paced", t.e)
	if err != nil {
		return err
	}
	if _, err := p.runPass(p.warm, nil); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		pr, err := p.runPass(p.timed[0], nil)
		if err != nil {
			return err
		}
		t.rep.count(p, pr.res)
		m := p.metrics(pr)
		for _, k := range []string{"cpu_us_per_rpc", "lat_mean_us", "lat_p50_us", "lat_p99_us"} {
			t.rep.add("cluster.paced_"+k, m[k])
		}
	}
	return nil
}

// liveSerial runs on one CPU with one P, as its untraced twin does. The
// pin stays (remoteCell, next, pins anyway); the P count is put back.
func (t *tracer) liveSerial() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	_, _, _, err := t.pair("live-serial", 3)
	return err
}

// livePolicies runs one short flat-out live cell per policy: nobw is the
// floor the data plane costs with no control at all.
func (t *tracer) livePolicies() error {
	p, err := buildPlan("live-flatout", t.e)
	if err != nil {
		return err
	}
	m := p.timed[0]
	m.Duration /= 2
	for _, pol := range policies {
		m.Policies = []sim.Policy{pol.p}
		pr, err := p.runPass(m, nil)
		if err != nil {
			return err
		}
		t.rep.count(p, pr.res)
		t.rep.add("cluster.cell_rpc_per_s."+pol.name, p.metrics(pr)["rpc_per_s"])
	}
	return nil
}

func (t *tracer) remoteCell() error {
	const name = "remote-cell"
	if t.e.nodeBin == "" {
		// Not silent: the driver fails the run for every metric left unmeasured.
		fmt.Fprintln(os.Stderr, "benchmark: no -node-bin, skipping the remote cells")
		return nil
	}
	_, _, traced, err := t.pair(name, 1)
	if err != nil {
		return err
	}
	_, makespan, _ := traced.served()
	t.rep.add("harness.remote_spawn_ready_ms", ms(traced.spawnReady))
	t.rep.add("harness.remote_teardown_s", (traced.wall - traced.spawnReady - makespan).Seconds())
	return nil
}

// writeSpans exports every span as one Chrome trace, a process per workload.
func (t *tracer) writeSpans(path string) error {
	byCat := map[string][]obs.Event{}
	var order []string
	for _, e := range t.sp.tr.Events() {
		if _, seen := byCat[e.Cat]; !seen {
			order = append(order, e.Cat)
		}
		byCat[e.Cat] = append(byCat[e.Cat], e)
	}
	procs := make([]obs.TraceProcess, len(order))
	for i, cat := range order {
		procs[i] = obs.TraceProcess{Name: cat, Events: byCat[cat]}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
