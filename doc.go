// Package adaptbf is a from-scratch Go reproduction of "AdapTBF:
// Decentralized Bandwidth Control via Adaptive Token Borrowing for HPC
// Storage" (Rashid & Dai, IPPS 2025).
//
// AdapTBF controls per-application I/O bandwidth on shared HPC storage
// servers. Building on the Token Bucket Filter (TBF) request scheduler of
// parallel file systems like Lustre, it adds an adaptive token
// borrowing/lending mechanism that keeps allocations proportional to each
// job's compute allocation while remaining work-conserving: idle tokens
// are lent to demanding jobs, and lenders are re-compensated when their
// own demand returns.
//
// This module implements the complete system described in the paper plus
// every substrate it depends on:
//
//   - the token allocation algorithm with records and remainder fairness
//     (internal/core) — the paper's contribution;
//   - a Lustre-style TBF network request scheduler (internal/tbf);
//   - a storage-target device model (internal/device) and job statistics
//     tracker (internal/jobstats);
//   - the rule management daemon (internal/rules) and periodic system
//     stats controller (internal/controller);
//   - a Filebench-equivalent workload generator (internal/workload);
//   - a deterministic discrete-event simulator that reproduces every
//     figure of the paper's evaluation (internal/des, internal/sim,
//     internal/experiments, internal/metrics);
//   - a live goroutine/RPC cluster mode (internal/transport,
//     internal/cluster) running all six policies on the wall clock,
//     including a central GIFT coupon-bank coordinator service and
//     lock-striped request gates (cluster.ShardedTBF, sharded EDT);
//   - an Earliest-Departure-Time pacing gate (internal/edt): per-flow
//     departure stamps in a timestamp priority queue, the post-TBF
//     pacing model, as a sixth policy on every backend;
//   - a deployable node daemon (cmd/adaptbf-node, cluster.Node) serving
//     an OSS or GIFT coordinator over TCP with graceful drain, plus a
//     deterministic fault-injection layer (transport.Fault,
//     harness.FaultProfile) and a remote process-per-OSS matrix backend
//     (harness.RemoteBackend);
//   - a concurrent scenario-matrix engine (internal/harness) that fans a
//     declarative grid — scenario × policy × scale × OSS count × seed —
//     out over a worker pool and merges the results deterministically,
//     with pluggable execution backends: the deterministic simulator or
//     live wall-clock cluster cells behind the same Matrix;
//   - a matrix analytics & export subsystem (internal/stats,
//     internal/report): streaming statistics, seed-axis confidence
//     intervals, per-cell latency digests, versioned JSON/CSV artifacts,
//     and the GIFT-vs-AdapTBF centralization-overhead scale study;
//   - an opt-in observability layer (internal/obs): a structured tracer
//     and lock-cheap metrics registry threaded through all three
//     backends, Chrome trace-event export, and Prometheus-text /metrics
//     plus net/http/pprof endpoints on the node daemon.
//
// Beyond the paper's single-target timelines, a simulation can model a
// multi-OSS stack with striped files: sim.Config.OSTs sets the stack
// width and workload.Pattern.StripeCount the per-file stripe width, with
// round-robin first-stripe placement and per-OSS TBF schedulers and
// controllers, as on the paper's (and GIFT's) multi-server Lustre
// testbeds.
//
// This package is the public façade: it re-exports the types needed to
// define scenarios, run simulations under the paper's three policies
// (NoBW, StaticBW, AdapTBF), reproduce the paper's experiments, and stand
// up live storage servers with per-target AdapTBF controllers.
//
// # Quick start
//
//	res, err := adaptbf.Run(adaptbf.Scenario{
//	    Policy: adaptbf.PolicyAdapTBF,
//	    Jobs: []adaptbf.Job{
//	        adaptbf.ContinuousJob("small.n01", 1, 4, 256<<20),
//	        adaptbf.ContinuousJob("large.n02", 3, 4, 256<<20),
//	    },
//	})
//
// # Running a matrix
//
// To sweep many configurations at once, declare a matrix and let the
// harness run the cells as fast as the cores allow. The entry point is
// context-aware and configured with functional options; canceling the
// context stops dispatch and drains the worker pool cleanly:
//
//	res, err := adaptbf.RunMatrixCtx(ctx, adaptbf.ScenarioMatrix{
//	    Scenarios: adaptbf.BuiltinScenarios(),
//	    OSSes:     []int{1, 2, 4},
//	    Scales:    []int64{64},
//	},
//	    adaptbf.WithMatrixWorkers(8),            // ≤0 = NumCPU
//	    adaptbf.WithMatrixCellTimeout(time.Minute),
//	    adaptbf.WithMatrixDigests(true),         // per-job latency digests
//	)
//	rep := res.Report()
//
// RunMatrixCtx is the one entry point: it offers backend selection,
// cancellation, per-cell timeouts, per-job digests, progress
// (WithMatrixProgress) and fail-fast dispatch (WithMatrixFailFast).
//
// From the command line: go run ./cmd/adaptbf-matrix -verify, or
// -backend live -cell-timeout 2m for a wall-clock sweep.
//
// # Backends
//
// Every cell executes on a pluggable backend (MatrixBackend). The
// default SimBackend runs the deterministic simulator: the merged report
// and Fingerprint are identical whatever the worker count. Passing
// WithMatrixBackend(&ClusterBackend{...}) instead runs every cell as a
// live wall-clock deployment — real in-process storage servers
// (cluster.OSS goroutines) and job runners issuing RPCs over the
// transport's binary frames (a magic+version preamble per direction,
// then length-prefixed fixed-layout requests and replies; a frame sent
// while nothing else is outstanding on its connection is written by its
// sender, any other is queued for a flusher that yields once, so busy
// senders share one write) — with each cell's CellResult.Backend (and the JSON
// document's per-cell backend field) set to "live". Live cells honor
// the matrix Duration as an OSS-time cap and report OSS-time metrics
// (wall-clock × ClusterBackend.Speedup); being measured rather than
// simulated, they are excluded from all determinism and fingerprint
// claims.
//
// The FULL six-policy axis runs live, each mechanism deployed the way
// its paper describes it:
//
//   - NoBW: no rules; FCFS from the TBF fallback queue.
//   - StaticBW: fixed priority-proportional rules (workload.StaticRules
//     — the same rule set the simulator installs, so the baseline
//     cannot drift between substrates).
//   - SFQ(D): the OSS's request gate is a node-weighted sfq.Scheduler
//     (cluster.OSSConfig.SFQ) instead of the TBF scheduler; such a
//     server has no rule engine (ErrNoRuleEngine) and no controller.
//   - AdapTBF: one independent controller per OSS (OSS.NewController) —
//     the paper's decentralization property, live.
//   - GIFT: one central coupon-bank coordinator per cell
//     (cluster.GIFTCoordinator) that every OSS's agent
//     (OSS.NewGIFTAgent) consults over the transport each epoch. The
//     coordinator serializes walks behind its bank mutex — GIFT's
//     serial central walk reproduced as actual RPCs, so its
//     coordination cost (Result.TickTimes: per-walk round-trips;
//     CtrlMsgs, RuleOps) is measured on the wire, not modeled.
//   - EDT: the OSS's request gate paces by Earliest Departure Time
//     (cluster.OSSConfig.EDT) — each flow carries one next-departure
//     timestamp, each request is stamped departure = max(now, stamp)
//     with the stamp advanced by bytes/rate, and a timestamp priority
//     queue releases requests as the clock reaches them, with
//     far-future departures clamped to a horizon instead of dropped
//     (the gate contract has no drop path). The gate is striped across
//     flow-hashed shards (cluster.DefaultGateShards): a flow's pacing
//     state is one int64 in one shard, so flows never contend — the
//     multi-core argument that moved production traffic shaping past
//     token buckets. Like SFQ, an EDT server has no rule engine and no
//     controller.
//
// On the TBF-ruled policies (StaticBW, AdapTBF, GIFT), setting
// ClusterBackend.TBFShards > 1 swaps the single-mutex gate for
// cluster.ShardedTBF: the same token buckets striped over flow-hashed
// locks, rules broadcast to every shard, with each class's bucket
// materialized only in the one shard its flow hashes to — so sharding
// never multiplies a token budget (pinned by a -race conservation
// test).
//
// What each policy is — its paper name, its flags, which gate it
// schedules through and which control loop runs beside each server — is
// one row of one table (internal/policy). The simulator, the storage
// server (cluster.Server, the same OSS-plus-control-loop whether it runs
// as goroutines or behind an adaptbf-node listener), both wall-clock
// backends (one runner, harness.runLiveCell, over a placement that only
// decides where the servers run) and the CLIs read that table; none of
// them switches on a policy. To add a policy: write its scheduler (the
// policy.Gate contract), then add its table row. A row that names a new
// gate kind or control loop also needs that kind's arm where gates are
// built (sim.newSimulation, cluster.NewOSS) or loops are started
// (sim's start, cluster.StartServer). Extend the six-policy live smoke
// in CI. Anything deterministic belongs in the simulator; anything
// wall-clock belongs in package cluster.
//
// How far apart the two substrates are is itself measured:
// RunCalibrationStudy (CLI: -study calibration) executes the same grid
// on both backends and reports per-policy divergence of throughput,
// node-normalized Jain fairness, and p50/p99 latency with cell-paired
// confidence intervals, flagging rows whose mean divergence exceeds
// CalibrationStudyOptions.OutlierPct. The sim half sweeps in parallel;
// the live half runs serially by default (LiveWorkers = 1) so
// concurrent wall-clock cells cannot contaminate each other's timers —
// that serialization is what the measurement's validity rests on. Per-
// cell failures are tolerated: a flaky live cell is excluded from
// pairing and counted (sim_failed_cells / live_failed_cells) instead of
// destroying the artifact. The JSON document
// carries the rows and the live grid's cells in a "calibration"
// section; CI smokes a small accelerated grid on every push, and the
// nightly workflow runs the full grid unaccelerated (-speedup 1) so
// slow drift between backends is caught without taxing every push.
// With CalibrationStudyOptions.Remote (CLI: -remote) the study runs the
// grid a third time on the remote backend and each row grows a
// remote-vs-sim divergence column; an optional fault profile applies to
// that remote half only and is recorded in the document.
//
// # Remote backend & fault injection
//
// The third backend crosses the process boundary: harness.RemoteBackend
// (CLI: -backend remote) runs every cell as separate OS processes
// communicating over loopback TCP — one cmd/adaptbf-node daemon per
// OSS, plus one coordinator daemon for GIFT cells — which makes the
// paper's deployment claim literal: the decentralization property holds
// across real process isolation and a real (if local) network. Each
// node prints a machine-parseable ADDR line at startup, answers a
// health opcode (a node built for another wire version fails that probe
// three times running and is refused then, with both versions named —
// transport.ErrHandshake — rather than mid-cell), and on SIGTERM drains gracefully — stops accepting,
// bounds open connections, stops its policy machinery — then emits a
// final STATS JSON line from which the backend folds device-busy
// counters and GIFT bank state into the cell result. Job runners drive
// the workload from the harness process through reconnecting clients
// (transport.Redialer) with per-RPC deadlines and a bounded retry
// budget, so no transport failure can hang a cell.
//
// Faults are injected deterministically, keyed by cell seed and
// connection index. The network layer (transport.Fault, parsed from
// "latency=2ms,jitter=1ms,loss=0.1,bw=64MiB") delays, jitters, and
// rate-limits writes on the node side of every connection, with loss
// modeled as bounded RTO-style retransmit penalties; a faulted
// connection is handed one frame per write, so replies that share a
// flush still each pay the profile. The process layer
// (harness.FaultProfile, CLI -faults) adds crash[=when] — SIGKILL the
// first OSS node mid-run — restart=after (respawn it on the same
// address, which reconnecting clients ride out), and straggler=k (the
// first OSS's device runs k× slower — on the remote and live backends
// both). The sim backend rejects any fault profile, and crash/restart
// require the remote backend: only a real process can be killed. Under
// every profile the transport's contract holds — each RPC completes or
// fails within its deadline, never blocks forever — pinned by the
// fault-path tests in internal/transport and the crash/restart smoke in
// internal/harness.
//
// Fault profiles are a first-class matrix axis: ScenarioMatrix.Faults
// takes a list of MatrixFaultProfile values (CLI: a ";"-separated
// -faults list, parsed by ParseFaultProfiles) and sweeps each against
// every other axis, so clean and degraded variants of the same cell
// land side by side in one merged report, keyed by the profile in the
// cell name, the cell table, and the per-fault policy-mean rows. An
// empty axis is the single fault-free profile, and fault-free cells
// keep their pre-axis names and document shape.
//
// # Admission control & overload
//
// In front of every storage server — on all three backends — sits an
// admission seam (AdmissionConfig, internal/admission) that decides per
// RPC whether work enters the scheduler at all. Three policies:
//
//   - always (the zero value): pass-through, bit-identical to running
//     without the layer — the golden fingerprint pins this.
//   - token-bucket: refuse arrivals beyond a byte budget
//     (cap/refill). The cost of a request is its payload size, never a
//     flat per-request unit, so a large job cannot smuggle more bytes
//     through the same request count.
//   - deadline-queue: admit into a bounded FIFO and shed, at dispatch,
//     work that already waited past its deadline (refuse outright when
//     the queue is full).
//
// A refused or shed RPC fails fast with a typed transport rejection
// (transport.RejectedError) that job runners never retry — retrying an
// overload signal is how retry storms start — and the issuing process
// moves on. The accounting follows one rule everywhere: rejected and
// shed RPCs are excluded from latency digests, the throughput timeline,
// and goodput bytes, but their payloads still count as offered bytes.
// Goodput (served/offered) therefore drops the moment admission refuses
// work, and every table or document row that reports a latency reports
// goodput and rejected/shed counts beside it — a policy cannot "meet" a
// latency target by silently refusing the workload (the trap the H5
// frequency-sweep analysis documented for per-request token costs).
//
// RunSaturationStudy (CLI: -study saturation) turns that into a
// capacity claim: per admission policy, the saturation-ramp scenario's
// offered load (its Scale axis is a load multiplier, not a volume
// divisor) is doubled and then bisected for the knee — the largest load
// multiple whose seed-mean p99 still meets the SLO (-slo-p99). The
// document's "saturation" section carries, per policy, the
// capacity-at-SLO (censored when the ramp ceiling never breached), the
// p99/goodput/rejected statistics at the knee with seed-axis confidence
// intervals, and every probe of the bisection, so the whole
// p99-vs-load curve ships with its knee. Per-cell documents also carry
// a starvation-tail section when per-job digests were captured: the
// median/p99/max of per-job p99 latencies and the count of jobs whose
// tail sits more than StarvationK× over the median — the
// fairness-under-overload view a cell-wide digest hides.
//
// # Matrix analytics and export
//
// A merged matrix is statistically summarized, not just tabulated. Each
// cell captures a latency digest (stats.Digest: a fixed-size log-bucket
// histogram with exact count/sum/min/max and nearest-rank quantile
// estimates) as it finishes, so per-cell latency distributions survive
// the merge without retaining raw samples; digests merge associatively,
// and the matrix fingerprint covers them. Policy-mean tables carry
// Student-t confidence intervals over the cells of each scenario×policy
// group (the seed axis, in a replicated sweep), computed by streaming
// Welford accumulators (stats.Moments).
//
// Every merged run exports as machine-readable artifacts: a
// schema-versioned JSON document (MatrixDocument — grid axes, per-cell
// summaries with digests and the executing backend, policy means ± CI,
// and opt-in per-job digests via MatrixDocumentOptions.PerJobDigests;
// see MatrixDocumentSchemaVersion) and per-table CSVs. From the CLI:
//
//	go run ./cmd/adaptbf-matrix -seeds 1,2,3,4,5 -json report.json -csv-dir out/
//
// The per-policy p99 latencies of the default grid are regression-gated:
// BENCH_matrix.json's regression_gate section tracks each policy's
// interval, and `adaptbf-matrix -gate BENCH_matrix.json` (run in CI)
// fails when a merged p99 drifts outside it — the simulator is
// deterministic, so any excursion is a real behavioural change. The
// same invocation then re-measures each live request gate's throughput
// in-process (cluster.MeasureGateThroughput — the BenchmarkGate*
// fixture: many enqueuers racing one dispatcher, best of three
// windows) and fails on a drop of more than 20% from the req/s
// baselines tracked in regression_gate.gate_throughput. That half is
// wall-clock, so baselines bind comparable machines only; re-capture
// them when the runner class changes, in the commit that explains it.
//
// RunGIFTScaleStudy (CLI: -study gift-scale) is the built-in study
// reproducing the paper's decentralization claim at scale: GIFT's one
// centralized controller walks every OSS serially each epoch and keeps a
// global coupon bank, while AdapTBF runs an independent controller per
// OSS. The study sweeps both (plus the NoBW floor) over OSS counts
// {1,2,4,8} with ≥5 seeds and reports per-OSS-count coordination cost,
// priority fairness (node-normalized Jain index), and utilization with
// confidence intervals, plus seed-paired GIFT-minus-AdapTBF gap rows.
//
// RunGateContentionStudy (CLI: -study gate-contention) measures the
// serving path itself: on the live backend it sweeps runner concurrency
// — the gate-contention scenario's Scale is the total concurrent client
// processes, making this the one study where -scales is a sweep axis —
// against four request-gate implementations: single-lock TBF,
// lock-striped sharded TBF, EDT, and SFQ. Per (gate, concurrency)
// point it reports seed-axis p99 latency, served throughput, and the
// p99 of gate_lock_wait_ns, observed identically for every gate at the
// requestGate seam (one histogram sample per lock acquisition). The
// tbf vs sharded-tbf pair isolates lock striping — same buckets, same
// StaticBW rules — while EDT replaces shared bucket state with
// departure stamps. The document's "gate_contention" section (schema
// v8, which also adds histogram bucket exports under per-cell obs)
// carries the full sweep; CI smokes two concurrency points per push,
// and the nightly ramp to 64 runners is where the scaling claim is
// actually measurable.
//
// To add a study: build a harness.Matrix, run it, derive per-cell
// scalars from the cells (pure functions of CellResult), fold them into
// stats.Moments groups, and emit a Study section plus experiments.Table
// rows — see internal/report/study.go for the template.
//
// # Workload specs & trace replay
//
// internal/workgen is the generative workload engine: declarative,
// seed-keyed workload specifications plus a versioned trace format for
// recording and replaying job streams. A spec is a JSON document
// (SpecVersion 1) in one of two modes:
//
//   - Jobs mode: the data form of the hand-written preset constructors —
//     a list of job specs (id, nodes, procs or readers/writers,
//     file_bytes, burst and stagger parameters, stripe "full"/"half"/n)
//     plus an optional jitter_spread. It materializes a []Job up front
//     and runs on every backend. The shipped files under
//     examples/workloads/ (striped-seq.json, mixed-rw.json,
//     staggered-burst.json) materialize byte-identical job sets to the
//     Go presets; a sync test enforces it.
//   - Stream mode: a generative job stream — an arrival process
//     ("poisson", "gamma" with shape k < 1 for clumped bursts, or
//     "diurnal": a Poisson base rate modulated by sinusoidal periods via
//     thinning), a tenant population (per-tenant node allocation,
//     selection weight and Zipf tenant_skew, transfer-size distribution:
//     fixed / uniform / lognormal / pareto, read_fraction), optional
//     churn (tenants rotate behaviour profiles every period), and the
//     stream bounds max_jobs and max_active.
//
// Stream cells are the flat-memory path: the simulator pulls jobs from
// the generator one at a time, holds at most max_active jobs of state
// (a slot pool), parks arrivals at the generator seam while slots are
// full, and folds every latency into mergeable digests instead of
// per-job slices — so one cell sweeps a million jobs (see
// examples/workloads/million-stream.json, smoke-tested in CI under an
// RSS ceiling) at the same footprint as a thousand. Generators are pure:
// the same (spec, scale, seed) yields the byte-identical stream on any
// worker, so streaming cells keep the engine's fingerprint guarantees;
// durations are quoted as "250ms" strings, sizes as "16MiB" strings,
// and each spec's canonical SHA-256 is recorded in reports and trace
// headers as provenance. From the CLI: -workload spec.json loads a spec
// as a scenario, and the builtin streaming scenarios poisson-mix,
// gamma-burst, and diurnal-tenants are available through -scenarios
// (sim backend only; materialized cells run everywhere).
//
// Traces make any cell's workload a file: -record-trace dir/ (API:
// WithMatrixRecordTrace) writes one versioned trace per cell — a JSON
// header pinning the cell coordinates, matrix knobs, and spec SHA,
// followed (in stream mode) by one compact line per generated job —
// and -replay-trace file re-runs the recorded workload with the grid
// pinned to the recorded coordinates, reproducing the original cell's
// fingerprint bit-for-bit; only the policy axis sweeps on replay, so a
// recorded stream doubles as a fixed benchmark input for policy
// comparisons. Cells carry their workload provenance (mode, spec
// name/SHA, stream job count, trace path) into the JSON document's
// per-cell "workload" section (schema v7).
//
// # Observability
//
// internal/obs is the instrumentation seam: a structured tracer and a
// metrics registry, both strictly opt-in and zero-cost when absent —
// every hot-path hook is a nil check, pinned by the steady-state
// allocation budgets and the golden fingerprint, which excludes all
// observability output by construction.
//
// The tracer records per-RPC lifecycles (admit → queue → dispatch →
// device → reply, with rejection and shed outcomes), controller epochs
// (AdapTBF ticks with per-bucket token levels and the borrow amount,
// GIFT central-walk wire spans, SFQ dispatch slots), and fault /
// crash / restart instants. On the sim backend timestamps are virtual,
// so the same seed yields a bit-identical trace; live cells stamp
// OSS-time; remote cells run instrumented node processes whose span
// batches cross the wire in a teardown drain opcode and are folded —
// thread- and id-remapped per node — into the cell's trace. A matrix
// run exports every cell as one Chrome trace-event document
// (MatrixResult.WriteTrace; CLI: -trace out.json, cell-filtered by
// -trace-cells) loadable in Perfetto or chrome://tracing: one trace
// process per cell, nestable async spans per RPC, one lane per OSS.
//
// The registry (obs.Registry) is a name-keyed set of atomic counters,
// gauges, and lock-free histograms cheap enough to live inside the
// request gate. Each cell's final snapshot lands in CellResult.Obs and
// the JSON document's per-cell "obs" section (schema v6); request-
// outcome counters are filled from the same Result totals on every
// backend, so served/rejected/shed agree across substrates by
// construction, while control-plane metrics (ctrl_ticks_total,
// tokens_borrowed_total, gate_lock_wait_ns) are measured where the
// mechanism actually runs. With WithMatrixObs (harness.WithObs; CLI:
// -obs, implied by -trace) the progress lines also carry running
// served/rejected tallies summed from the registries.
//
// The node daemon serves the same registry live: adaptbf-node
// -obs-addr exposes Prometheus-text /metrics and net/http/pprof on a
// side HTTP listener (printed as an OBS line at startup), and its
// health-opcode reply carries uptime, Go version, and whether the obs
// layer is armed — surfaced in the remote backend's readiness logs.
//
// # Performance
//
// The simulator's per-RPC path is (near-)zero-allocation in steady state,
// which is what lets the matrix engine sweep large GIFT-vs-AdapTBF grids
// at millions of DES events per second on one core:
//
//   - Interned job IDs. Every job ID is interned to a dense integer index
//     at configuration time; tbf.Request carries the index, and the TBF
//     scheduler (route cache), SFQ flows, jobstats counters, and the
//     metrics timeline/latency recorders all account by slice index. The
//     string names survive only at the reporting boundary (tables,
//     fingerprints, the live cluster mode).
//   - Pooled events and requests. internal/des stores events by value in
//     a slot arena behind a 4-ary heap and recycles slots through a free
//     list; recurring callbacks are scheduled through pre-bound AtCall
//     closures built once per run. Each RPC's tbf.Request + client tag
//     ride one pooled token for the RPC's whole lifetime.
//   - Suppressed stale wakes. An OST arms at most one wake timer; a
//     generation counter strands superseded wakes so Dequeue misses never
//     pile up redundant events (pinned by TestNoRedundantWakeEvents).
//   - Reused periodic scratch. The controller's backlog map, the rule
//     daemon's reconciliation state, and the allocator's intermediate
//     vectors are all reused across observation periods, and the matrix
//     engine's SimBackend pools sim.Scratch (event arena + token pool)
//     instances across cells and across runs.
//
// The invariants are enforced, not aspirational: testing.AllocsPerRun
// tests pin the steady-state budgets (≤2 allocs/RPC under NoBW and SFQ —
// in practice 0 — and ≤4 under AdapTBF), and a golden-fingerprint test
// proves the refactored hot path produces bit-identical results to the
// pre-refactor simulator on the full default matrix grid. The tracked
// numbers live in BENCH_matrix.json at the repository root, a curated
// history — don't overwrite it; measure a fresh run with
//
//	go run ./cmd/adaptbf-matrix -quiet -bench-json BENCH_cli.json
//
// (also accepts -cpuprofile/-memprofile for pprof profiles of the run)
// and fold the numbers into BENCH_matrix.json's history array by hand,
// alongside the benchmark command recorded in its how_to_refresh field.
//
// See examples/quickstart for the complete program and DESIGN.md for the
// system inventory and the per-experiment index.
package adaptbf
