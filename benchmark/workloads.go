package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"adaptbf/internal/device"
	"adaptbf/internal/harness"
	"adaptbf/internal/report"
	"adaptbf/internal/sim"
	"adaptbf/internal/stats"
	"adaptbf/internal/workgen"
	"adaptbf/internal/workload"
)

// policies is the policy axis of every sim workload, in the order the
// per-policy metric names are listed.
var policies = []struct {
	name string
	p    sim.Policy
}{
	{"nobw", sim.NoBW}, {"static", sim.StaticBW}, {"adaptbf", sim.AdapTBF},
	{"sfq", sim.SFQ}, {"edt", sim.EDT}, {"gift", sim.GIFT},
}

func policyAxis() []sim.Policy {
	out := make([]sim.Policy, len(policies))
	for i, p := range policies {
		out[i] = p.p
	}
	return out
}

func policyName(p sim.Policy) string {
	for _, e := range policies {
		if e.p == p {
			return e.name
		}
	}
	return p.String()
}

// fastDevice is a backing store quick enough that the live workloads
// measure this program's RPC path, not a modeled disk.
var fastDevice = device.Params{BytesPerSec: 1 << 40, PerRPCOverhead: time.Microsecond}

// flatJobs are the two closed-loop clients of every live and remote
// workload: one process each, so the load comes from exactly two client
// goroutines' worth of in-flight windows on a two-core host.
var flatJobs = []string{"big.n08", "small.n01"}

// liveScenario is the benchmark-owned live scenario in one of its three
// client patterns, all two unbounded single-process jobs issuing 64 KiB
// RPCs in a closed loop: "flatout" keeps eight in flight per client (the
// throughput regime: queues form), "serial" one (the latency regime: an RPC
// never waits behind another of its own client, so its latency is the RPC
// path itself), and "paced" sends bursts of eight 2 ms apart, which drops
// the offered load to a few percent of capacity and leaves the process idle
// between bursts.
func liveScenario(workloadName string) harness.Scenario {
	p := workload.Pattern{RPCBytes: 64 << 10, MaxInflight: 8}
	name := "flatout"
	switch workloadName {
	case "live-serial":
		name, p.MaxInflight = "serial", 1
	case "live-paced":
		name, p.BurstRPCs, p.BurstInterval = "paced", 8, 2*time.Millisecond
	}
	return harness.Scenario{Name: name, Jobs: func(harness.CellParams) []workload.Job {
		// Backends rescale job times in place, so every cell gets its own slices.
		return []workload.Job{
			{ID: flatJobs[0], Nodes: 8, Procs: []workload.Pattern{p}},
			{ID: flatJobs[1], Nodes: 1, Procs: []workload.Pattern{p}},
		}
	}}
}

// env is what a workload needs from outside the process.
type env struct {
	root    string // checkout root: BENCHMARK.json and benchmark/ live here
	nodeBin string // prebuilt adaptbf-node, for remote-cell
	seed    int64
	sz      sizes
}

func (e env) streamSpecPath() string {
	return filepath.Join(e.root, "benchmark", "workloads", "million-stream.json")
}

// A plan is one workload made concrete: every workload is "run this matrix
// on this backend through harness.Run, over and over", and the plan holds
// the differences.
type plan struct {
	name    string
	backend harness.Backend
	warm    harness.Matrix // no scenarios = no warm-up
	// timed holds the matrices the timed passes cycle through. Passes are
	// kept short and many (a run reports medians over them) because this
	// class of host slows down for seconds at a time: the more passes, the
	// fewer of them a slow phase can claim.
	timed []harness.Matrix
	opts  []harness.RunOption

	sim        bool     // deterministic: ops are cells, passes must agree
	report     bool     // each pass ends by building and encoding the report
	streamJobs int64    // jobs every stream cell must complete (0 = not a stream)
	jobs       []string // job IDs that must each be served in every cell
	ready      *readyLog
}

// readyLog timestamps the remote backend's node-readiness lines, which is
// the only outside view of when spawning ends and the workload begins.
type readyLog struct {
	mu   sync.Mutex
	last time.Time
}

func (r *readyLog) logf(string, ...any) {
	r.mu.Lock()
	r.last = time.Now()
	r.mu.Unlock()
}

func (r *readyLog) since(start time.Time) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last.Sub(start)
}

func seedAxis(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(i)
	}
	return out
}

func buildPlan(name string, e env) (*plan, error) {
	p := &plan{name: name, backend: harness.NewSimBackend()}
	switch name {
	case "sim-grid":
		// One pass is one seed's grid (3 scenarios x 6 policies x 3 OSS
		// counts) plus its report; the passes cycle through the seeds.
		p.sim, p.report = true, true
		for _, seed := range seedAxis(e.seed, e.sz.gridSeeds) {
			p.timed = append(p.timed, harness.Matrix{
				Scenarios: harness.DefaultScenarios(),
				Policies:  policyAxis(),
				Scales:    []int64{e.sz.gridScale},
				OSSes:     e.sz.gridOSSes,
				Seeds:     []int64{seed},
			})
		}
		p.warm = p.timed[0]
	case "sim-stream":
		spec, err := workgen.LoadSpec(e.streamSpecPath())
		if err != nil {
			return nil, err
		}
		sc, err := harness.ScenarioFromSpec(spec)
		if err != nil {
			return nil, err
		}
		p.sim = true
		p.streamJobs = max(spec.Stream.MaxJobs/e.sz.streamScale, 1)
		p.timed = []harness.Matrix{{
			Scenarios: []harness.Scenario{sc},
			Policies:  policyAxis(),
			Scales:    []int64{e.sz.streamScale},
			OSSes:     []int{2},
			Seeds:     []int64{e.seed},
		}}
		p.warm = p.timed[0]
		p.warm.Policies = []sim.Policy{sim.AdapTBF}
	case "live-flatout", "live-serial", "live-paced", "remote-cell":
		p.jobs = flatJobs
		m := harness.Matrix{
			Scenarios:    []harness.Scenario{liveScenario(name)},
			Policies:     []sim.Policy{sim.AdapTBF},
			OSSes:        []int{2},
			Seeds:        []int64{e.seed},
			MaxTokenRate: 1e6, // tokens never bind: the data plane is what is measured
			Period:       100 * time.Millisecond,
			Duration:     e.sz.liveDur,
		}
		if name == "remote-cell" {
			// One node process beside the harness, both confined to one CPU.
			// On two, throughput was no higher (50-61k RPC/s against 52k) but
			// followed the host's mood: waking the other vCPU exits to the
			// hypervisor, and over ten seeds rpc_per_s spread 11-21% and its
			// median moved 17% between sets; pinned, every metric repeats
			// within 5%. No warm-up: every remote cell spawns fresh
			// processes, so its users always pay cold.
			if err := pinToOneCPU(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			p.ready = &readyLog{}
			m.OSSes, m.Duration = []int{1}, e.sz.remoteDur
			p.backend = &harness.RemoteBackend{NodeBin: e.nodeBin, Device: fastDevice, Logf: p.ready.logf}
			p.timed = []harness.Matrix{m}
			break
		}
		if name == "live-serial" {
			// One CPU and one P: the RPC path run back to back on a single
			// core that never idles. With the second vCPU in play the same
			// loop followed the host's mood (CPU per RPC spread 14-18% over
			// eight runs against 5-6% pinned): every hand-off between
			// goroutines may wake a thread on the other vCPU, and what that
			// costs is the hypervisor's business.
			if err := pinToOneCPU(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			runtime.GOMAXPROCS(1)
		}
		p.backend = &harness.ClusterBackend{Device: fastDevice, Speedup: 1}
		p.timed = []harness.Matrix{m}
		p.warm = m
		p.warm.Duration = e.sz.warmDur
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	p.opts = []harness.RunOption{harness.WithBackend(p.backend), harness.WithWorkers(1)}
	return p, nil
}

// A passResult is one timed harness.Run with the resources it consumed.
type passResult struct {
	res        *harness.MatrixResult
	wall       time.Duration
	cpuS       float64
	mallocs    uint64
	cellTimes  []time.Duration // wall time of each cell, in completion order
	spawnReady time.Duration   // remote-cell: Run start → last node ready
	jsonBytes  int             // report passes: size of the encoded document
}

// runPass executes one matrix and, for report workloads, what a user does
// with the result. sp is nil on untraced passes. A non-nil MatrixResult
// comes back even when cells failed; check decides what that means.
func (p *plan) runPass(m harness.Matrix, sp *spans, opts ...harness.RunOption) (passResult, error) {
	defer sp.in("pass", p.name, nil)()
	var pr passResult
	m0, c0, start := mallocs(), cpuSeconds(), time.Now()
	last := start
	opts = append([]harness.RunOption{harness.WithProgress(func(harness.CellResult) {
		// One worker: cells finish one after another, so the gaps between
		// completions are the cells' wall times.
		now := time.Now()
		pr.cellTimes = append(pr.cellTimes, now.Sub(last))
		last = now
	})}, opts...)
	done := sp.in("harness.Run", p.name, nil)
	res, err := harness.Run(context.Background(), m, append(p.opts[:len(p.opts):len(p.opts)], opts...)...)
	done()
	if res == nil {
		return passResult{}, fmt.Errorf("%s: %w", p.name, err)
	}
	pr.res = res
	if p.report {
		done = sp.in("report.FromMatrix", p.name, nil)
		doc := report.FromMatrix(res, report.Options{})
		done()
		done = sp.in("Document.JSON", p.name, nil)
		data, err := doc.JSON()
		done()
		if err != nil {
			return passResult{}, fmt.Errorf("%s: report: %w", p.name, err)
		}
		pr.jsonBytes, _ = io.Discard.Write(data) // cannot fail
	}
	pr.wall = time.Since(start)
	pr.cpuS = cpuSeconds() - c0
	pr.mallocs = mallocs() - m0
	if p.ready != nil {
		pr.spawnReady = p.ready.since(start)
	}
	return pr, nil
}

// served sums the pass's RPCs and merges its cells' latency digests.
func (pr passResult) served() (rpcs uint64, makespan time.Duration, lat *stats.Digest) {
	lat = stats.NewDigest()
	for _, c := range pr.res.Cells {
		if c.Err != nil || c.Result == nil {
			continue
		}
		rpcs += c.Result.ServedRPCs
		makespan += c.Result.Elapsed
		lat.Merge(c.LatencyDigest)
	}
	return rpcs, makespan, lat
}

func (pr passResult) events() (n uint64) {
	for _, c := range pr.res.Cells {
		if c.Result != nil {
			n += c.Result.Events
		}
	}
	return n
}

// metrics derives the per-pass end-to-end samples. RPCs are simulated on
// the sim workloads and real on the others; either way they are the unit
// of work the pass got through. Latency is what the workload's user waits
// for: a cell on the sim workloads, an RPC on the others.
func (p *plan) metrics(pr passResult) map[string]float64 {
	rpcs, makespan, lat := pr.served()
	n := float64(max(rpcs, 1))
	out := map[string]float64{
		"pass_s":         pr.wall.Seconds(),
		"cpu_us_per_rpc": pr.cpuS * 1e6 / n,
		"allocs_per_rpc": float64(pr.mallocs) / n,
	}
	if p.sim {
		cells := make([]float64, len(pr.cellTimes))
		var sum float64
		for i, d := range pr.cellTimes {
			cells[i] = float64(d) / 1e3
			sum += cells[i]
		}
		out["rpc_per_s"] = n / pr.wall.Seconds() // simulated RPCs per wall second
		out["lat_mean_us"] = sum / float64(len(cells))
		out["lat_p50_us"] = median(cells)
		return out
	}
	out["rpc_per_s"] = n / makespan.Seconds() // served RPCs over the cell's makespan
	out["lat_mean_us"] = float64(lat.Mean()) / 1e3
	out["lat_p50_us"] = digestQuantile(lat, 50)
	out["lat_p99_us"] = digestQuantile(lat, 99) // per-layer only: too unsteady to bound
	return out
}

// measured is the part of a pass that counts against the run's time
// budget: the work itself, not the 5 s a remote cell spends tearing down.
// A pass whose cells all failed has no makespan and counts in full, so a
// broken workload still ends.
func (p *plan) measured(pr passResult) time.Duration {
	if _, makespan, _ := pr.served(); !p.sim && makespan > 0 {
		return makespan
	}
	return pr.wall
}

// check applies the workload's correctness rules to one pass. attempted
// and failed count cells on sim workloads and RPCs on the others.
func (p *plan) check(res *harness.MatrixResult) (attempted, failed int64, errs []string) {
	bad := func(c harness.CellResult, format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s: %s", p.name, c.Cell, fmt.Sprintf(format, args...)))
	}
	for _, c := range res.Cells {
		before := len(errs)
		var rpcs, refused int64
		switch r := c.Result; {
		case c.Err != nil:
			bad(c, "cell failed: %v", c.Err)
		case r == nil || c.LatencyDigest == nil:
			bad(c, "cell has no result")
		default:
			rpcs, refused = int64(r.ServedRPCs), int64(r.Rejected+r.Shed)
			if int64(r.ServedRPCs) != c.LatencyDigest.N() {
				bad(c, "served %d RPCs but the latency digest holds %d", r.ServedRPCs, c.LatencyDigest.N())
			}
			// Every workload is always-admit, so nothing may be refused and
			// every offered byte must have been served.
			if refused != 0 || r.GoodputBytes != r.OfferedBytes {
				bad(c, "offered %d bytes, served %d, rejected %d and shed %d RPCs", r.OfferedBytes, r.GoodputBytes, r.Rejected, r.Shed)
			}
			if r.ServedRPCs == 0 {
				bad(c, "served no RPCs")
			}
			for _, job := range p.jobs {
				if r.Latencies == nil || r.Latencies.Count(job) == 0 {
					bad(c, "job %s was never served", job)
				}
			}
			if p.streamJobs > 0 && (c.Workload == nil || c.Workload.StreamJobs != p.streamJobs) {
				bad(c, "stream cell did not complete %d jobs", p.streamJobs)
			}
		}
		cellBad := len(errs) > before
		switch {
		case p.sim:
			attempted++
			if cellBad {
				failed++
			}
		case cellBad:
			// Every RPC of a failed cell counts as failed; a cell that died
			// before serving anything still counts once.
			n := max(rpcs+refused, 1)
			attempted, failed = attempted+n, failed+n
		default:
			attempted += rpcs + refused
			failed += refused
		}
	}
	return attempted, failed, errs
}

// A childReport is what one workload process hands back to the driver.
type childReport struct {
	SetupS    float64              `json:"setup_s"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	// Fingerprints and Events hold, per timed matrix, the sim behaviour
	// every pass over that matrix must reproduce.
	Fingerprints []string `json:"fingerprints,omitempty"`
	Events       []uint64 `json:"events,omitempty"`
	// SpawnReadyS holds remote-cell's per-cell spawn→ready times: set-up
	// its users pay on every cell, so the driver adds it to setup_s.
	SpawnReadyS []float64 `json:"spawn_ready_s,omitempty"`
	// KidsMaxRSSKB is the largest reaped child's peak RSS (the node daemon).
	KidsMaxRSSKB int64  `json:"kids_max_rss_kb,omitempty"`
	SpanFile     string `json:"span_file,omitempty"`
}

func (r *childReport) add(name string, v float64) {
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	r.Samples[name] = append(r.Samples[name], v)
}

func (r *childReport) fail(errs ...string) { r.Errors = append(r.Errors, errs...) }

// count checks one pass and adds its operations and failures to the report.
func (r *childReport) count(p *plan, res *harness.MatrixResult) {
	attempted, failed, errs := p.check(res)
	r.Attempted += attempted
	r.Failed += failed
	r.fail(errs...)
}

// sameBehaviour holds a sim pass over timed matrix i to the first pass
// over it: simulated behaviour is a pure function of the matrix, so the
// fingerprint and the event count must repeat exactly. (They are reported,
// not pinned to a constant: a later change may move them on purpose, and
// an A/B run will show it.)
func (r *childReport) sameBehaviour(name string, i int, fingerprint string, events uint64) {
	if i == len(r.Fingerprints) {
		r.Fingerprints, r.Events = append(r.Fingerprints, fingerprint), append(r.Events, events)
		return
	}
	if fingerprint != r.Fingerprints[i] {
		r.fail(fmt.Sprintf("%s: matrix %d: pass fingerprint %s differs from the first pass's %s", name, i, fingerprint, r.Fingerprints[i]))
	}
	if events != r.Events[i] {
		r.fail(fmt.Sprintf("%s: matrix %d: pass processed %d events, the first pass %d", name, i, events, r.Events[i]))
	}
}

// behaviour condenses the per-matrix fingerprints and event counts into
// the one pair a run reports.
func (r *childReport) behaviour() (fingerprint string, events uint64) {
	for _, n := range r.Events {
		events += n
	}
	switch len(r.Fingerprints) {
	case 0:
		return "", 0
	case 1:
		return r.Fingerprints[0], events
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(r.Fingerprints, "\n")))), events
}

// runWorkload is the untraced child: set up, then repeat timed passes
// until the budget is spent. started is when the driver launched this
// process, so setup_s covers process start, spec load, scenario build and
// warm-up — everything before the first timed pass.
func runWorkload(name string, e env, started time.Time, setupOnly bool) (*childReport, error) {
	p, err := buildPlan(name, e)
	if err != nil {
		return nil, err
	}
	rep := &childReport{}
	if len(p.warm.Scenarios) > 0 {
		pr, err := p.runPass(p.warm, nil)
		if err != nil {
			return nil, err
		}
		_, _, errs := p.check(pr.res) // warm-up operations are not counted, its failures are
		rep.fail(errs...)
	}
	rep.SetupS = time.Since(started).Seconds()
	if setupOnly {
		return rep, nil
	}

	var measured time.Duration
	for i := 0; i < len(p.timed) || measured.Seconds() < e.sz.seconds; i++ {
		which := i % len(p.timed)
		pr, err := p.runPass(p.timed[which], nil)
		if err != nil {
			return nil, err
		}
		measured += p.measured(pr)
		rep.count(p, pr.res)
		for k, v := range p.metrics(pr) {
			rep.add(k, v)
		}
		if p.ready != nil {
			rep.SpawnReadyS = append(rep.SpawnReadyS, pr.spawnReady.Seconds())
		}
		if p.sim {
			rep.sameBehaviour(name, which, pr.res.Fingerprint(), pr.events())
		}
	}
	rep.KidsMaxRSSKB = reapedMaxRSSKB()
	return rep, nil
}
