// Command adaptbf-matrix runs a scenario matrix — workload scenario ×
// policy × scale × OSS count × seed — concurrently over a bounded worker
// pool and prints the deterministically merged report.
//
// The default matrix is the acceptance grid: 3 scenarios × 4 policies ×
// 2 OSS counts = 24 cells. Every cell is an independent deterministic
// simulation, so the merged output is identical whatever -workers is;
// -verify re-runs the matrix with a single worker and proves it.
//
// Usage:
//
//	adaptbf-matrix [-scenarios striped-seq,mixed-rw,staggered-burst]
//	               [-policies nobw,static,adaptbf,sfq]
//	               [-scales 64] [-osses 1,2] [-seeds 1]
//	               [-workers 0] [-rate 500] [-period 100ms]
//	               [-duration 30m] [-verify] [-quiet]
//	               [-backend sim|live|remote] [-cell-timeout 0]
//	               [-speedup 1] [-per-job-digests]
//	               [-faults "none;latency=2ms,jitter=1ms,loss=0.1"]
//	               [-admission token-bucket:cap=64MiB,refill=256MiB]
//	               [-node-bin path/to/adaptbf-node] [-remote]
//	               [-json report.json] [-csv-dir out/] [-ci-level 0.95]
//	               [-study gift-scale|calibration|saturation|gate-contention]
//	               [-slo-p99 100ms]
//	               [-gate BENCH_matrix.json] [-bench-json BENCH_matrix.json]
//	               [-cpuprofile cpu.pb] [-memprofile mem.pb]
//	               [-obs] [-trace trace.json] [-trace-cells GIFT]
//	               [-workload spec.json] [-record-trace traces/]
//	               [-replay-trace traces/cell.trace]
//
// -workload loads a declarative workload spec (JSON; see
// examples/workloads/ and internal/workgen) and runs it as a scenario:
// jobs-mode specs materialize their job set up front and run on every
// backend, stream-mode specs generate jobs lazily on the sim backend so
// a cell can sweep millions of jobs at flat memory. The builtin
// streaming scenarios (poisson-mix, gamma-burst, diurnal-tenants) are
// available by name through -scenarios. -record-trace writes one
// versioned trace file per cell; -replay-trace re-runs a recorded trace
// with the grid pinned to the recorded coordinates (only -policies
// sweeps) and reproduces the recorded cell's fingerprint bit-for-bit.
//
// -backend selects the execution substrate for every cell: "sim" (the
// default deterministic discrete-event simulator), "live" (real
// in-process storage servers and job runners on the wall clock — the
// report marks such cells backend:"live"; -speedup accelerates their
// modeled device so long workloads finish in reasonable wall time), or
// "remote" (every OSS is its own adaptbf-node process reached over
// loopback TCP, plus a coordinator process for GIFT cells — the paper's
// deployment claim crossing a real process boundary; -node-bin points
// at a prebuilt daemon binary, otherwise one is built from the module).
// -cell-timeout bounds each cell's execution; a cell exceeding it fails
// with a deadline error (live cells are torn down the moment it fires;
// sim cells are not preemptible and fail on completion instead).
// -faults is a first-class matrix axis: a ";"-separated list of fault
// profiles ("none" or the empty entry is the fault-free profile), each
// swept against every other axis like a scenario or seed, so clean and
// degraded runs of the same cell land in one report. Within a profile,
// network faults (latency=, jitter=, loss=, bw=) apply on -backend live
// and remote, while the process faults — crash[=when] (SIGKILL the
// first OSS node mid-run), restart=after (respawn it on the same
// address), straggler=k (slow the first OSS's device k×) — require
// -backend remote, the only substrate with processes to kill.
// -admission puts an admission controller in front of every OSS on any
// backend: "always" (the default pass-through), "token-bucket" (refuse
// work beyond a byte budget; cost is the payload size, so big jobs
// can't hide behind a per-request count), or "deadline-queue" (queue
// up to a limit and shed work that waited past its deadline). Refused
// and shed RPCs are excluded from the latency digests and throughput
// but counted against offered bytes, and every table that reports a
// latency also reports the goodput percentage and rejected/shed counts
// beside it.
// -gate loads the tracked per-policy p99 intervals from the given JSON
// file (BENCH_matrix.json's regression_gate section) and fails the run
// if any policy's merged p99 drifted outside its interval; it checks
// the default grid only, so it rejects explicit axis flags.
//
// -json writes the merged result as a schema-versioned machine-readable
// document (grid axes, per-cell summaries with latency digests, policy
// means with Student-t confidence intervals at -ci-level); -csv-dir
// exports every report table as CSV. -study gift-scale ignores the grid
// flags and runs the built-in GIFT-vs-AdapTBF centralization-overhead
// scale study (OSS {1,2,4,8} × 5 seeds by default, with -osses/-seeds/
// -scales/-duration overriding its axes). -study calibration executes
// the same grid on the simulator AND the live cluster backend and
// reports the per-policy per-metric divergence between them (overriding
// axes: -policies/-osses/-seeds/-scales/-duration/-speedup/
// -cell-timeout; -speedup 1 runs the live cells unaccelerated). With
// -remote the calibration adds a third grid run on the remote
// process-per-OSS backend — growing each divergence row by a
// remote-vs-sim column — and -faults then injects its profile into that
// remote half only (the document records it). -study saturation runs
// the capacity-at-SLO study: per -admission policy (a ";"-separated
// list; default always, token-bucket, deadline-queue), the
// saturation-ramp scenario's offered load is doubled and then bisected
// for the knee — the largest load multiple whose seed-mean p99 still
// meets the -slo-p99 target — reporting capacity-at-SLO with seed-axis
// confidence intervals and the goodput/rejected split at the knee
// (overriding axes: -seeds/-osses/-duration; -scales caps the ramp).
// -study gate-contention sweeps runner concurrency against four
// request-gate implementations (single-lock TBF, sharded TBF, EDT, SFQ)
// on the live in-process backend and reports p99 latency, served
// throughput, and the gate_lock_wait_ns p99 per (gate, concurrency)
// point with seed-axis confidence intervals; here -scales IS the
// concurrency axis — the one study where it sweeps — and -seeds/-osses/
// -duration/-speedup/-cell-timeout tune the rest.
//
// -obs runs every cell with the observability layer (internal/obs)
// enabled: each cell's metrics snapshot lands in the report's "obs"
// section and the progress lines carry running served/rejected tallies.
// -trace additionally exports every cell's spans as one Chrome
// trace-event JSON file — open it in Perfetto or chrome://tracing; one
// trace process per cell, per-RPC lifecycles as nestable async spans —
// and implies -obs. -trace-cells keeps only the cells whose name
// contains the given substring (e.g. "GIFT" or "seed3"). On the sim
// backend the trace is deterministic: same grid, same bytes. Neither
// flag changes any measured result or the fingerprint, but they do
// allocate, so they are rejected alongside -bench-json.
//
// With -bench-json the run is measured — wall time, heap allocations, and
// DES events processed — and a per-cell record (ns/cell, allocs/cell,
// events/sec) is written to the given file, so the simulator's performance
// trajectory can be tracked run over run (see BENCH_matrix.json at the
// repository root for the tracked history). -cpuprofile and -memprofile
// write standard pprof profiles of the same run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/config"
	"adaptbf/internal/experiments"
	"adaptbf/internal/harness"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/policy"
	"adaptbf/internal/report"
	"adaptbf/internal/sim"
)

// benchRecord is one measured matrix run, the unit BENCH_matrix.json
// tracks.
type benchRecord struct {
	Grid         string  `json:"grid"`
	Cells        int     `json:"cells"`
	Workers      int     `json:"workers"`
	WallNS       int64   `json:"wall_ns"`
	NSPerCell    float64 `json:"ns_per_cell"`
	AllocsPerOp  float64 `json:"allocs_per_cell"`
	BytesPerOp   float64 `json:"bytes_per_cell"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	Fingerprint  string  `json:"fingerprint"`
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range splitList(s) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// studyRejectedFlags lists, per built-in study, the flags that cannot be
// combined with it (each study fixes its own grid and measurement; only
// the listed axes override its defaults).
var studyRejectedFlags = map[string][]string{
	report.GIFTScaleStudyName: {"verify", "bench-json", "cpuprofile", "memprofile",
		"scenarios", "policies", "rate", "period",
		"backend", "cell-timeout", "speedup", "per-job-digests", "gate",
		"faults", "node-bin", "remote", "admission", "slo-p99",
		"obs", "trace", "trace-cells",
		"workload", "record-trace", "replay-trace"},
	// Calibration runs its backends itself, so -backend is meaningless;
	// -speedup/-cell-timeout/-policies tune its live half, and
	// -remote/-node-bin/-faults add and tune its remote half.
	report.CalibrationStudyName: {"verify", "bench-json", "cpuprofile", "memprofile",
		"scenarios", "rate", "period",
		"backend", "per-job-digests", "gate", "admission", "slo-p99",
		"obs", "trace", "trace-cells",
		"workload", "record-trace", "replay-trace"},
	// Saturation fixes its scenario and ramps the scale axis itself;
	// -admission (a ";"-list of the policies to compare), -slo-p99,
	// -seeds, -osses, -scales (the ramp ceiling), and -duration tune it.
	report.SaturationStudyName: {"verify", "bench-json", "cpuprofile", "memprofile",
		"scenarios", "policies", "rate", "period",
		"backend", "cell-timeout", "speedup", "per-job-digests", "gate",
		"faults", "node-bin", "remote",
		"obs", "trace", "trace-cells",
		"workload", "record-trace", "replay-trace"},
	// Gate-contention fixes its scenario, its four gate variants, and the
	// live backend, and always runs with the obs layer (the lock-wait
	// histogram IS the measurement); -scales (the concurrency axis),
	// -seeds, -osses, -duration, -speedup, and -cell-timeout tune it.
	report.GateContentionStudyName: {"verify", "bench-json", "cpuprofile", "memprofile",
		"scenarios", "policies", "rate", "period",
		"backend", "per-job-digests", "gate",
		"faults", "node-bin", "remote", "admission", "slo-p99",
		"obs", "trace", "trace-cells",
		"workload", "record-trace", "replay-trace"},
}

// validateGridFlags checks the flag combinations of a plain (non-study)
// grid run: backend is the -backend value, faults the parsed -faults
// axis, and set reports which flags were given explicitly. It returns
// the first offending combination.
func validateGridFlags(backend string, faults []harness.FaultProfile, set map[string]bool) error {
	switch backend {
	case "sim", "live", "remote":
	default:
		return fmt.Errorf("unknown -backend %q (available: sim, live, remote)", backend)
	}
	if set["slo-p99"] {
		return fmt.Errorf("-slo-p99 is a -study saturation flag")
	}
	if backend != "sim" {
		// Live and remote cells are wall-clock: nothing about them is
		// deterministic or comparable to the tracked sim baselines. In
		// particular -verify proves parallel ≡ sequential merging, which
		// is a simulator-determinism property — on wall-clock cells the
		// re-run would always differ, so the flag must be rejected, not
		// ignored.
		for _, f := range []string{"verify", "bench-json", "gate"} {
			if set[f] {
				return fmt.Errorf("-%s requires -backend sim (%s cells are wall-clock, not deterministic)", f, backend)
			}
		}
	} else if set["speedup"] {
		return fmt.Errorf("-speedup only applies to -backend live or remote (the simulator's clock is virtual)")
	}
	for _, f := range faults {
		if f.IsZero() {
			continue
		}
		if backend == "sim" {
			return fmt.Errorf("-faults requires -backend live or remote (the simulator is deterministic; it has no network to degrade)")
		}
		if f.CrashOSS && backend == "live" {
			return fmt.Errorf("-faults crash/restart modes require -backend remote (only a separate OSS process can be killed)")
		}
	}
	if set["node-bin"] && backend != "remote" {
		return fmt.Errorf("-node-bin only applies to -backend remote")
	}
	if set["record-trace"] && backend != "sim" {
		return fmt.Errorf("-record-trace requires -backend sim (a trace pins a deterministic workload; wall-clock cells have none)")
	}
	if set["replay-trace"] {
		if backend != "sim" {
			return fmt.Errorf("-replay-trace requires -backend sim (replay reproduces the recorded fingerprint bit-for-bit, a simulator-determinism property)")
		}
		for _, f := range []string{"scenarios", "workload", "scales", "osses", "seeds",
			"rate", "period", "duration", "admission", "faults", "record-trace", "gate"} {
			if set[f] {
				return fmt.Errorf("-%s conflicts with -replay-trace (the trace pins the recorded workload, grid, and knobs; only -policies sweeps)", f)
			}
		}
	}
	if set["remote"] {
		return fmt.Errorf("-remote is a -study calibration flag; use -backend remote for a grid run")
	}
	if set["trace-cells"] && !set["trace"] {
		return fmt.Errorf("-trace-cells filters the -trace export; it needs -trace")
	}
	if set["bench-json"] && (set["obs"] || set["trace"]) {
		// The observability layer allocates; measuring it would pollute
		// the tracked allocs/cell trajectory.
		return fmt.Errorf("-bench-json measures the bare engine; it cannot be combined with -obs or -trace")
	}
	if set["gate"] {
		// The tracked intervals are captured on the default grid; gating
		// a different grid would compare unrelated measurements.
		for _, axis := range []string{"scenarios", "workload", "policies", "scales", "osses", "seeds", "rate", "period", "duration"} {
			if set[axis] {
				return fmt.Errorf("-gate checks the tracked default grid; -%s is not supported with it (re-capture the regression_gate intervals instead if the grid should change)", axis)
			}
		}
	}
	return nil
}

// setFlags reports which flags were given explicitly on the command
// line.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// writeArtifacts persists the machine-readable outputs: the versioned
// JSON document (when doc is non-nil and jsonOut set) and per-table CSVs
// (when csvDir is set).
func writeArtifacts(doc *report.Document, rep *experiments.Report, jsonOut, csvDir string) {
	if jsonOut != "" && doc != nil {
		if err := doc.WriteJSON(jsonOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote JSON document (schema v%d) → %s\n", doc.SchemaVersion, jsonOut)
	}
	if csvDir != "" {
		files, err := rep.WriteCSVs(csvDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d CSV tables → %s\n", len(files), csvDir)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptbf-matrix: ")
	scenarios := flag.String("scenarios", strings.Join(func() []string {
		var names []string
		for _, sc := range harness.DefaultScenarios() {
			names = append(names, sc.Name)
		}
		return names
	}(), ","), "comma-separated scenario names (available: "+strings.Join(harness.ScenarioNames(), ", ")+"; the generative streaming scenarios need -backend sim)")
	policies := flag.String("policies", "nobw,static,adaptbf,sfq", "comma-separated policies ("+policy.Flags()+")")
	scales := flag.String("scales", "64", "comma-separated volume divisors (1 = paper scale)")
	osses := flag.String("osses", "1,2", "comma-separated OSS counts")
	seeds := flag.String("seeds", "1", "comma-separated seeds")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	rate := flag.Float64("rate", 500, "max token rate T_i per OSS (tokens/s)")
	period := flag.Duration("period", 100*time.Millisecond, "observation period Δt")
	duration := flag.Duration("duration", 30*time.Minute, "simulated time cap per cell")
	verify := flag.Bool("verify", false, "re-run with workers=1 and check the merged output is identical")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines")
	backend := flag.String("backend", "sim", "cell execution backend: sim (deterministic simulator), live (wall-clock in-process cluster), or remote (one adaptbf-node process per OSS over TCP)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell execution bound (0 = none); a cell exceeding it fails with a deadline error (live cells torn down immediately, sim cells on completion)")
	speedup := flag.Float64("speedup", 1, "live/remote backends only: device/controller clock acceleration factor")
	faults := flag.String("faults", "", "fault-profile axis for live/remote cells: a \";\"-separated list swept as a matrix axis, e.g. \"none;latency=2ms,loss=0.1\" (each entry latency=,jitter=,loss=,bw=,crash=,restart=,straggler=; crash/restart need -backend remote)")
	workloadSpec := flag.String("workload", "", "load a declarative workload spec JSON file (see examples/workloads/) as a scenario; replaces the scenario set unless -scenarios is also given, in which case it is added to it")
	recordTrace := flag.String("record-trace", "", "record every cell's workload as a versioned trace file in the given directory (created if missing; -backend sim only)")
	replayTrace := flag.String("replay-trace", "", "replay a recorded workload trace: the grid is pinned to the trace's coordinates and knobs, and only -policies sweeps (sim backend)")
	admissionFlag := flag.String("admission", "", "admission policy in front of every OSS: always, token-bucket[:cap=N,refill=N], or deadline-queue[:limit=N,deadline=D] (empty = always-admit); -study saturation takes a \";\"-separated list of policies to compare")
	sloP99 := flag.Duration("slo-p99", 0, "saturation study: the p99 latency SLO the capacity bisection targets (0 = study default 100ms)")
	nodeBin := flag.String("node-bin", "", "remote backend: prebuilt adaptbf-node binary (empty = build one from the module)")
	remote := flag.Bool("remote", false, "calibration study: add a third grid run on the remote process-per-OSS backend (remote-vs-sim divergence column)")
	perJobDigests := flag.Bool("per-job-digests", false, "capture per-job latency digests and export them in the JSON document")
	gate := flag.String("gate", "", "check the run against the regression_gate intervals in the given JSON file (fails on drift)")
	jsonOut := flag.String("json", "", "write the merged result as a schema-versioned JSON document to the given file")
	csvDir := flag.String("csv-dir", "", "export every report table as CSV under the given directory")
	ciLevel := flag.Float64("ci-level", harness.DefaultCILevel, "confidence level for the Student-t interval columns (0 < level < 1)")
	study := flag.String("study", "", "run a built-in study instead of the grid flags (available: gift-scale, calibration, saturation, gate-contention)")
	obsFlag := flag.Bool("obs", false, "run every cell with the observability layer enabled (metrics snapshots in the report's obs section, served/rejected tallies on the progress lines)")
	traceOut := flag.String("trace", "", "export every cell's spans as a Chrome trace-event JSON file (Perfetto-loadable) to the given path; implies -obs")
	traceCells := flag.String("trace-cells", "", "keep only the cells whose name contains this substring in the -trace export")
	benchJSON := flag.String("bench-json", "", "write a benchRecord (ns/cell, allocs/cell, events/sec) of this run to the given file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the matrix run to the given file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile taken after the matrix run to the given file")
	flag.Parse()

	scs, err := harness.ScenariosByName(splitList(*scenarios))
	if err != nil {
		log.Fatal(err)
	}
	if *workloadSpec != "" {
		wsc, err := harness.LoadScenarioSpec(*workloadSpec)
		if err != nil {
			log.Fatalf("bad -workload: %v", err)
		}
		if setFlags()["scenarios"] {
			scs = append(scs, wsc)
		} else {
			scs = []harness.Scenario{wsc}
		}
	}
	var pols []sim.Policy
	for _, p := range splitList(*policies) {
		pol, err := config.ParsePolicy(p)
		if err != nil {
			log.Fatal(err)
		}
		pols = append(pols, pol)
	}
	scaleVals, err := parseInt64s(*scales)
	if err != nil {
		log.Fatalf("bad -scales: %v", err)
	}
	ossVals, err := parseInts(*osses)
	if err != nil {
		log.Fatalf("bad -osses: %v", err)
	}
	seedVals, err := parseInt64s(*seeds)
	if err != nil {
		log.Fatalf("bad -seeds: %v", err)
	}
	if *ciLevel <= 0 || *ciLevel >= 1 {
		log.Fatalf("bad -ci-level %v: need 0 < level < 1", *ciLevel)
	}
	faultProfiles, err := harness.ParseFaultProfiles(*faults)
	if err != nil {
		log.Fatalf("bad -faults: %v", err)
	}
	if *study != "" {
		// A study supplies its own grid; only explicitly-set axis flags
		// override its defaults.
		set := setFlags()
		rejected, known := studyRejectedFlags[*study]
		if !known {
			log.Fatalf("unknown -study %q (available: %s, %s, %s, %s)",
				*study, report.GIFTScaleStudyName, report.CalibrationStudyName,
				report.SaturationStudyName, report.GateContentionStudyName)
		}
		for _, r := range rejected {
			if set[r] {
				log.Fatalf("-%s is not supported in -study %s mode (the study fixes its own grid and measurement)", r, *study)
			}
		}
		// Gate-contention is the one study whose scale axis IS a sweep
		// (runner concurrency); every other study fixes a single scale.
		if set["scales"] && len(scaleVals) > 1 && *study != report.GateContentionStudyName {
			log.Fatalf("-study mode sweeps one scale; got -scales %v", scaleVals)
		}
		var onCell func(harness.CellResult)
		if !*quiet {
			done := 0
			onCell = func(cr harness.CellResult) {
				done++
				status := "ok"
				if cr.Err != nil {
					status = "ERROR: " + cr.Err.Error()
				}
				fmt.Printf("  [%3d] %-45v (%s) %s\n", done, cr.Cell, cr.Backend, status)
			}
		}

		var doc *report.Document
		var rep *experiments.Report
		switch *study {
		case report.GIFTScaleStudyName:
			opt := report.ScaleStudyOptions{Workers: *workers, CILevel: *ciLevel, OnCell: onCell}
			if set["osses"] {
				opt.OSSes = ossVals
			}
			if set["seeds"] {
				opt.Seeds = seedVals
			}
			if set["scales"] && len(scaleVals) > 0 {
				opt.Scale = scaleVals[0]
			}
			if set["duration"] {
				opt.Duration = *duration
			}
			st, err := report.RunGIFTScaleStudy(opt)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("study %s: %d cells in %v with %d workers\n\n",
				*study, len(st.Matrix.Cells), st.Matrix.Elapsed.Round(time.Millisecond), st.Matrix.Workers)
			doc, rep = st.Document, st.Report
		case report.CalibrationStudyName:
			opt := report.CalibrationStudyOptions{Workers: *workers, CILevel: *ciLevel, OnCell: onCell}
			if set["policies"] {
				opt.Policies = pols
			}
			if set["osses"] {
				opt.OSSes = ossVals
			}
			if set["seeds"] {
				opt.Seeds = seedVals
			}
			if set["scales"] && len(scaleVals) > 0 {
				opt.Scale = scaleVals[0]
			}
			if set["duration"] {
				opt.Duration = *duration
			}
			if set["speedup"] {
				opt.Speedup = *speedup
			}
			if set["cell-timeout"] {
				opt.CellTimeout = *cellTimeout
			}
			opt.Remote = *remote
			opt.NodeBin = *nodeBin
			if len(faultProfiles) > 1 {
				log.Fatalf("-study calibration injects a single fault profile into its remote half; got a %d-entry -faults list", len(faultProfiles))
			}
			opt.Faults = faultProfiles[0]
			st, err := report.RunCalibrationStudy(opt)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("study %s: %d sim + %d live cells (sim %v, live %v)\n",
				*study, len(st.Sim.Cells), len(st.Live.Cells),
				st.Sim.Elapsed.Round(time.Millisecond), st.Live.Elapsed.Round(time.Millisecond))
			if st.Remote != nil {
				fmt.Printf("  + %d remote cells in %v (faults: %s)\n",
					len(st.Remote.Cells), st.Remote.Elapsed.Round(time.Millisecond), faultProfiles[0])
			}
			if c := st.Document.Calibration; c.SimFailedCells > 0 || c.LiveFailedCells > 0 || c.RemoteFailedCells > 0 {
				fmt.Printf("WARNING: %d sim / %d live / %d remote cells failed and were excluded from pairing (see the cell errors in the JSON document)\n",
					c.SimFailedCells, c.LiveFailedCells, c.RemoteFailedCells)
			}
			fmt.Println()
			doc, rep = st.Document, st.Report
		case report.SaturationStudyName:
			opt := report.SaturationStudyOptions{Workers: *workers, CILevel: *ciLevel, OnCell: onCell}
			if set["admission"] {
				cfgs, err := admission.ParseList(*admissionFlag)
				if err != nil {
					log.Fatalf("bad -admission: %v", err)
				}
				opt.Admissions = cfgs
			}
			if set["seeds"] {
				opt.Seeds = seedVals
			}
			if set["osses"] && len(ossVals) > 0 {
				opt.OSSes = ossVals[0]
			}
			if set["scales"] && len(scaleVals) > 0 {
				// In this study the scale axis is the offered-load ramp;
				// -scales sets its ceiling.
				opt.MaxScale = scaleVals[0]
			}
			if set["duration"] {
				opt.Duration = *duration
			}
			opt.SLOP99 = *sloP99
			st, err := report.RunSaturationStudy(opt)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range st.Document.Saturation.Policies {
				cap := fmt.Sprintf("capacity scale %d", p.CapacityScale)
				if p.Censored {
					cap += " (censored at ramp ceiling)"
				}
				fmt.Printf("study %s: %-40s %s over %d probes\n",
					*study, p.Admission, cap, len(p.Probes))
			}
			fmt.Println()
			doc, rep = st.Document, st.Report
		case report.GateContentionStudyName:
			opt := report.GateContentionStudyOptions{Workers: *workers, CILevel: *ciLevel, OnCell: onCell}
			if set["scales"] {
				// In this study the scale axis is runner concurrency.
				opt.Concurrencies = scaleVals
			}
			if set["seeds"] {
				opt.Seeds = seedVals
			}
			if set["osses"] && len(ossVals) > 0 {
				opt.OSSes = ossVals[0]
			}
			if set["duration"] {
				opt.Duration = *duration
			}
			if set["speedup"] {
				opt.Speedup = *speedup
			}
			if set["cell-timeout"] {
				opt.CellTimeout = *cellTimeout
			}
			st, err := report.RunGateContentionStudy(opt)
			if err != nil {
				log.Fatal(err)
			}
			for _, g := range st.Document.GateContention.Gates {
				last := g.Points[len(g.Points)-1]
				fmt.Printf("study %s: %-12s (%s, %d shards) lock p99 %.0f ns at concurrency %d\n",
					*study, g.Gate, g.Policy, g.Shards, last.LockWaitP99NsMean, last.Concurrency)
			}
			fmt.Println()
			doc, rep = st.Document, st.Report
		}
		for _, t := range rep.Tables {
			fmt.Printf("-- %s --\n", t.Name)
			metrics.RenderTable(os.Stdout, t.Header, t.Rows)
			fmt.Println()
		}
		writeArtifacts(doc, rep, *jsonOut, *csvDir)
		return
	}

	if err := validateGridFlags(*backend, faultProfiles, setFlags()); err != nil {
		log.Fatal(err)
	}
	admCfg, err := admission.Parse(*admissionFlag)
	if err != nil {
		log.Fatalf("bad -admission: %v", err)
	}
	var be harness.Backend
	switch *backend {
	case "live":
		be = &harness.ClusterBackend{Speedup: *speedup}
	case "remote":
		be = &harness.RemoteBackend{Speedup: *speedup, NodeBin: *nodeBin}
	default:
		be = harness.NewSimBackend()
	}

	// Fill the same defaults harness.Run would, so the cell-count banner
	// below reports the axes actually swept even when a flag was emptied.
	if len(pols) == 0 {
		pols = harness.DefaultPolicies
	}
	if len(scaleVals) == 0 {
		scaleVals = []int64{1}
	}
	if len(ossVals) == 0 {
		ossVals = []int{1}
	}
	if len(seedVals) == 0 {
		seedVals = []int64{1}
	}

	m := harness.Matrix{
		Scenarios:    scs,
		Policies:     pols,
		Scales:       scaleVals,
		OSSes:        ossVals,
		Seeds:        seedVals,
		MaxTokenRate: *rate,
		Period:       *period,
		Duration:     *duration,
		Faults:       faultProfiles,
		Admission:    admCfg,
	}
	if *replayTrace != "" {
		// The trace pins the recorded workload, coordinates, and knobs;
		// the policy axis is the one thing replay sweeps.
		rm, err := harness.ReplayMatrix(*replayTrace, pols)
		if err != nil {
			log.Fatal(err)
		}
		m = rm
		scs, scaleVals, ossVals, seedVals = m.Scenarios, m.Scales, m.OSSes, m.Seeds
		admCfg = m.Admission
		fmt.Printf("replay: %s (scenario %s)\n", *replayTrace, scs[0].Name)
	}
	cells, err := m.Cells()
	if err != nil {
		log.Fatal(err)
	}
	axes := fmt.Sprintf("%d scenarios × %d policies × %d scales × %d OSS counts × %d seeds",
		len(scs), len(pols), len(scaleVals), len(ossVals), len(seedVals))
	if len(faultProfiles) > 1 {
		axes += fmt.Sprintf(" × %d fault profiles", len(faultProfiles))
	}
	fmt.Printf("matrix: %d cells (%s)\n", len(cells), axes)
	if !admCfg.IsAlways() {
		fmt.Printf("admission: %s in front of every OSS\n", admCfg)
	}

	if *benchJSON != "" && !*quiet {
		// Progress printing inside the measurement window would skew the
		// tracked wall time and allocation counts.
		fmt.Println("bench-json: forcing -quiet so the measurement excludes progress output")
		*quiet = true
	}
	withObs := *obsFlag || *traceOut != ""
	opts := []harness.RunOption{
		harness.WithWorkers(*workers),
		harness.WithBackend(be),
		harness.WithCellTimeout(*cellTimeout),
		harness.WithDigests(*perJobDigests),
	}
	if withObs {
		opts = append(opts, harness.WithObs())
	}
	if *recordTrace != "" {
		if err := os.MkdirAll(*recordTrace, 0o755); err != nil {
			log.Fatal(err)
		}
		opts = append(opts, harness.WithRecordTrace(*recordTrace))
	}
	if !*quiet {
		done := 0
		var served, rejected int64
		opts = append(opts, harness.WithProgress(func(cr harness.CellResult) {
			done++
			status := "ok"
			if cr.Err != nil {
				status = "ERROR: " + cr.Err.Error()
			} else if cr.Obs != nil {
				// Running tallies out of the cells' metrics registries, so
				// long matrix runs show work accumulating, not just cell
				// names scrolling by.
				served += cr.Obs.Counter(obs.MetricServed)
				rejected += cr.Obs.Counter(obs.MetricRejected) + cr.Obs.Counter(obs.MetricShed)
				status = fmt.Sprintf("ok  served %d  rejected %d", served, rejected)
			}
			fmt.Printf("  [%3d/%3d] %-45v %s\n", done, len(cells), cr.Cell, status)
		}))
	}
	var stopProfile func()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	var statsBefore runtime.MemStats
	if *benchJSON != "" {
		runtime.ReadMemStats(&statsBefore)
	}
	res, err := harness.Run(context.Background(), m, opts...)
	// Stop (and flush) the CPU profile right here: it covers exactly the
	// matrix run, not the report rendering or the -verify re-run, and a
	// failed run still leaves a readable profile behind.
	if stopProfile != nil {
		stopProfile()
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nran %d cells in %v with %d workers\n\n", len(res.Cells), res.Elapsed.Round(time.Millisecond), res.Workers)
	if *benchJSON != "" {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		var events uint64
		for _, cr := range res.Cells {
			if cr.Err == nil {
				events += cr.Result.Events
			}
		}
		n := float64(len(res.Cells))
		sec := res.Elapsed.Seconds()
		rec := benchRecord{
			Grid: fmt.Sprintf("%d scenarios × %d policies × %d scales × %d OSS counts × %d seeds",
				len(scs), len(pols), len(scaleVals), len(ossVals), len(seedVals)),
			Cells:        len(res.Cells),
			Workers:      res.Workers,
			WallNS:       res.Elapsed.Nanoseconds(),
			NSPerCell:    float64(res.Elapsed.Nanoseconds()) / n,
			AllocsPerOp:  float64(after.Mallocs-statsBefore.Mallocs) / n,
			BytesPerOp:   float64(after.TotalAlloc-statsBefore.TotalAlloc) / n,
			Events:       events,
			EventsPerSec: float64(events) / sec,
			CellsPerSec:  n / sec,
			Fingerprint:  res.Fingerprint(),
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*benchJSON, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bench: %.0f ns/cell, %.0f allocs/cell, %.0f events/s → %s\n\n",
			rec.NSPerCell, rec.AllocsPerOp, rec.EventsPerSec, *benchJSON)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	rep := res.ReportCI(*ciLevel)
	for _, t := range rep.Tables {
		fmt.Printf("-- %s --\n", t.Name)
		metrics.RenderTable(os.Stdout, t.Header, t.Rows)
		fmt.Println()
	}
	var doc *report.Document
	if *jsonOut != "" {
		ropt := report.Options{CILevel: *ciLevel, PerJobDigests: *perJobDigests}
		if !admCfg.IsAlways() {
			// Always-admit grids keep the pre-admission document shape.
			ropt.Admission = admCfg.String()
		}
		doc = report.FromMatrix(res, ropt)
	}
	writeArtifacts(doc, rep, *jsonOut, *csvDir)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteTrace(f, *traceCells); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		traced := 0
		for _, cr := range res.Cells {
			if len(cr.Trace) > 0 && (*traceCells == "" || strings.Contains(cr.Cell.String(), *traceCells)) {
				traced++
			}
		}
		fmt.Printf("wrote Chrome trace of %d cells → %s (open in Perfetto or chrome://tracing)\n", traced, *traceOut)
	}

	if *gate != "" {
		spec, err := report.LoadGate(*gate)
		if err != nil {
			log.Fatal(err)
		}
		pols, p99s := report.PolicyP99s(res)
		for _, p := range pols {
			fmt.Printf("gate: %-10s merged p99 = %.1fµs\n", p, p99s[p])
		}
		if err := report.CheckGate(res, spec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gate: every tracked policy's p99 inside its interval (%s)\n", *gate)
		// The gate-throughput half: re-measure each tracked live gate
		// implementation in-process (best-of-3 windows) and fail on a
		// >20% drop from the recorded ops/sec baseline.
		if spec.GateThroughput != nil {
			tput, err := report.MeasureGateThroughputs(spec)
			if err != nil {
				log.Fatal(err)
			}
			for _, name := range spec.GateThroughput.GateNames() {
				fmt.Printf("gate: %-11s throughput = %.2fM req/s (recorded %.2fM)\n",
					name, tput[name]/1e6, spec.GateThroughput.Gates[name].OpsPerSec/1e6)
			}
			if err := report.CheckGateThroughput(spec, tput); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("gate: every tracked gate within %.0f%% of its recorded throughput\n",
				report.GateThroughputTolerance*100)
		}
	}

	if *verify {
		seq, err := harness.Run(context.Background(), m, harness.WithWorkers(1))
		if err != nil {
			log.Fatal(err)
		}
		if seq.Fingerprint() != res.Fingerprint() {
			log.Fatalf("NOT DETERMINISTIC: workers=%d fingerprint differs from sequential run", res.Workers)
		}
		fmt.Printf("verified: sequential re-run produced an identical merged result (fingerprint %s…)\n",
			res.Fingerprint()[:16])
	}
}
