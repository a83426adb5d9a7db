// Package harness is the concurrent scenario-matrix engine: it takes a
// declarative matrix (workload scenario × policy × scale × OSS count ×
// seed), fans the independent deterministic simulations out over a
// bounded worker pool, and merges the per-cell results into aggregate
// report tables whose content is identical no matter how many workers ran
// or in what order cells finished.
//
// The paper evaluates AdapTBF one storage target and one workload at a
// time; its testbed — like GIFT's — is a multi-server Lustre deployment
// with files striped across OSSes. The harness closes both gaps at once:
// every cell can model N OSSes with striped files (sim.Config.OSTs plus
// workload.Pattern.StripeCount), and the whole figure suite runs as fast
// as the cores allow instead of strictly sequentially.
//
// Determinism contract: each cell is a pure function of its CellParams
// (sim.Run is bit-for-bit deterministic and Scenario.Jobs must be a pure
// function of its argument), results land in a slice indexed by cell, and
// merging walks cells in index order. Hence Run with Workers=1 and
// Workers=NumCPU produce identical MatrixResults — a property the tests
// and the race detector both hold the engine to.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/experiments"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/sim"
	"adaptbf/internal/stats"
	"adaptbf/internal/workgen"
	"adaptbf/internal/workload"
)

// CellParams is what a scenario generator sees: the cell's position on
// the non-policy axes. Generators must be pure functions of this value —
// that is the whole determinism story.
type CellParams struct {
	// Scale divides the scenario's I/O volumes (1 = paper scale).
	Scale int64
	// OSSes is the number of object storage servers in the cell's stack.
	OSSes int
	// Seed drives deterministic jitter (start delays, burst phasing).
	Seed int64
}

// A Scenario names a workload family and builds its job set for a cell.
// Exactly one of Jobs and Stream must be set. Jobs materializes the full
// set up front and runs on every backend; Stream opens a lazy generative
// job stream (package workgen) that the sim backend pulls one job at a
// time, so cells can sweep millions of jobs at flat memory. Both carry
// the same purity contract: the returned jobs must be a function of the
// CellParams alone.
type Scenario struct {
	Name   string
	Jobs   func(p CellParams) []workload.Job
	Stream func(p CellParams) (workgen.Stream, error)

	// Source records the scenario's declarative origin (a spec file or a
	// replayed trace) for report provenance. Nil for Go presets.
	Source *WorkloadSource
}

// A WorkloadSource identifies where a scenario's workload came from.
type WorkloadSource struct {
	// Kind is "spec" or "trace".
	Kind string
	// Name is the spec's self-declared name.
	Name string
	// SHA is the spec's canonical-JSON SHA-256 (spec-backed scenarios).
	SHA string
	// Path is the file the spec or trace was loaded from, when any.
	Path string
}

// A WorkloadInfo describes how a finished cell's workload was produced —
// the provenance block reports carry. Present on CellResults whose
// scenario was generative, declaratively sourced, or recorded to a
// trace; nil for plain Go presets.
type WorkloadInfo struct {
	// Mode is "jobs" (materialized) or "stream" (generative).
	Mode string
	// Source is the scenario's declarative origin, when any.
	Source *WorkloadSource
	// StreamJobs counts completed stream jobs (stream cells only).
	StreamJobs int64
	// TracePath is the recorded workload trace (WithRecordTrace runs).
	TracePath string
}

// A Matrix declares the full cross product of runs.
type Matrix struct {
	Scenarios []Scenario
	// Policies defaults to the four decentral-comparison policies:
	// NoBW, StaticBW, AdapTBF, SFQ.
	Policies []sim.Policy
	// Scales defaults to {1}.
	Scales []int64
	// OSSes defaults to {1}.
	OSSes []int
	// Seeds defaults to {1}.
	Seeds []int64

	// MaxTokenRate is T_i per OSS in tokens/s. Defaults to 500.
	MaxTokenRate float64
	// Period is the controller observation period Δt. Defaults to 100 ms.
	Period time.Duration
	// Duration caps each cell's simulated time. Defaults to 30 minutes.
	Duration time.Duration
	// SFQDepth is the dispatch depth for SFQ cells. Defaults to 1.
	SFQDepth int

	// Faults is the fault-injection axis: every cell runs once per
	// profile, like any other axis. Empty means one fault-free pass.
	// Only fault-capable backends accept a non-zero profile (the sim
	// backend rejects any; crash/restart need the remote backend).
	Faults []FaultProfile

	// Admission is the admission-control policy installed in front of
	// every OSS in every cell. The zero value (always-admit) is
	// bit-identical to running without one.
	Admission admission.Config
}

// DefaultPolicies is the policy axis used when Matrix.Policies is empty.
var DefaultPolicies = []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ}

func (m Matrix) normalize() (Matrix, error) {
	if len(m.Scenarios) == 0 {
		return m, errors.New("harness: matrix has no scenarios")
	}
	seen := make(map[string]bool, len(m.Scenarios))
	for _, sc := range m.Scenarios {
		if sc.Name == "" || (sc.Jobs == nil) == (sc.Stream == nil) {
			return m, errors.New("harness: scenario needs a Name and exactly one of Jobs or Stream")
		}
		if seen[sc.Name] {
			return m, fmt.Errorf("harness: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	if len(m.Policies) == 0 {
		m.Policies = append([]sim.Policy(nil), DefaultPolicies...)
	}
	if len(m.Scales) == 0 {
		m.Scales = []int64{1}
	}
	for _, s := range m.Scales {
		if s < 1 {
			return m, fmt.Errorf("harness: scale %d < 1", s)
		}
	}
	if len(m.OSSes) == 0 {
		m.OSSes = []int{1}
	}
	for _, n := range m.OSSes {
		if n < 1 {
			return m, fmt.Errorf("harness: OSS count %d < 1", n)
		}
	}
	if len(m.Seeds) == 0 {
		m.Seeds = []int64{1}
	}
	if m.MaxTokenRate == 0 {
		m.MaxTokenRate = 500
	}
	if m.Period == 0 {
		m.Period = 100 * time.Millisecond
	}
	if m.Duration == 0 {
		m.Duration = 30 * time.Minute
	}
	if len(m.Faults) == 0 {
		m.Faults = []FaultProfile{{}}
	}
	for _, f := range m.Faults {
		if err := f.Validate(); err != nil {
			return m, err
		}
	}
	if err := m.Admission.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// A Cell is one point of the expanded matrix.
type Cell struct {
	Index    int
	Scenario string
	Policy   sim.Policy
	Scale    int64
	OSSes    int
	Seed     int64
	// Faults is the cell's point on the fault axis (zero = fault-free).
	Faults FaultProfile
}

// Params extracts the scenario-generator view of the cell.
func (c Cell) Params() CellParams {
	return CellParams{Scale: c.Scale, OSSes: c.OSSes, Seed: c.Seed}
}

// String renders the cell's coordinates for logs and table rows. The
// fault segment appears only on faulted cells, so every pre-fault-axis
// cell name (and the golden fingerprint built from them) is unchanged.
func (c Cell) String() string {
	s := fmt.Sprintf("%s/%v/scale%d/oss%d/seed%d", c.Scenario, c.Policy, c.Scale, c.OSSes, c.Seed)
	if !c.Faults.IsZero() {
		s += "/faults=" + c.Faults.String()
	}
	return s
}

// Cells expands the matrix in its canonical order: scenario, then policy,
// then scale, then OSS count, then seed, then fault profile. Merging and
// reporting follow this order, never completion order.
func (m Matrix) Cells() ([]Cell, error) {
	n, err := m.normalize()
	if err != nil {
		return nil, err
	}
	return n.cells(), nil
}

// cells expands an already-normalized matrix.
func (m Matrix) cells() []Cell {
	var cells []Cell
	for _, sc := range m.Scenarios {
		for _, pol := range m.Policies {
			for _, scale := range m.Scales {
				for _, osses := range m.OSSes {
					for _, seed := range m.Seeds {
						for _, faults := range m.Faults {
							cells = append(cells, Cell{
								Index:    len(cells),
								Scenario: sc.Name,
								Policy:   pol,
								Scale:    scale,
								OSSes:    osses,
								Seed:     seed,
								Faults:   faults,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// A CellResult pairs a cell with its finished execution (or its error).
// LatencyDigest condenses every RPC latency of the cell (all jobs) into a
// fixed-size mergeable histogram, captured as the cell finishes so the
// distribution survives the merge without retaining raw samples.
// JobDigests holds one digest per job when the run asked for them
// (WithDigests); Backend names the substrate that ran the cell. Both are
// reporting-only: neither feeds Fingerprint, so the golden hash is a
// property of the results alone.
type CellResult struct {
	Cell          Cell
	Backend       string
	Result        *sim.Result
	LatencyDigest *stats.Digest
	JobDigests    []JobDigest
	Err           error

	// Workload is the cell's workload provenance (mode, declarative
	// source, recorded trace). Nil for plain Go-preset materialized
	// cells. Reporting-only: never feeds Fingerprint.
	Workload *WorkloadInfo

	// Obs is the cell's metrics snapshot and Trace its span events,
	// present only when the run enabled them (WithObs). Reporting-only,
	// like the digests: neither ever feeds Fingerprint, so enabling
	// observability cannot change a golden hash.
	Obs   *obs.Snapshot
	Trace []obs.Event
}

// A MatrixResult holds every cell's outcome in canonical cell order.
// Elapsed is wall-clock engine time and is deliberately excluded from
// Report and Fingerprint, which must not depend on worker count.
type MatrixResult struct {
	Cells   []CellResult
	Workers int
	Elapsed time.Duration
}

// runConfig is the resolved option set of one Run call.
type runConfig struct {
	workers       int
	backend       Backend
	progress      func(CellResult)
	cellTimeout   time.Duration
	perJobDigests bool
	failFast      bool
	obs           bool
	recordDir     string
}

// A RunOption tunes an engine run (see Run).
type RunOption func(*runConfig)

// WithWorkers bounds the worker pool. n ≤ 0 (and the default) means
// runtime.NumCPU().
func WithWorkers(n int) RunOption { return func(c *runConfig) { c.workers = n } }

// WithBackend selects the execution substrate for every cell. The
// default is a shared SimBackend; pass a ClusterBackend for live
// wall-clock cells.
func WithBackend(b Backend) RunOption { return func(c *runConfig) { c.backend = b } }

// WithProgress observes each finished cell. Calls are serialized but
// arrive in completion order, not cell order.
func WithProgress(fn func(CellResult)) RunOption {
	return func(c *runConfig) { c.progress = fn }
}

// WithCellTimeout bounds each cell's execution: a cell still running
// after d fails with context.DeadlineExceeded. A live cell is torn down
// the moment the deadline fires; a sim cell is not preemptible, so it
// fails (result discarded) when the simulation returns. 0 (the default)
// means no per-cell bound — only the run's own context limits a cell.
func WithCellTimeout(d time.Duration) RunOption {
	return func(c *runConfig) { c.cellTimeout = d }
}

// WithDigests tunes digest capture. The per-cell latency digest is
// always captured (it is part of the fingerprint); WithDigests(true)
// additionally captures one digest per job per cell
// (CellResult.JobDigests) for starvation-tail analysis. Per-job digests
// are reporting-only and never change the fingerprint.
func WithDigests(perJob bool) RunOption {
	return func(c *runConfig) { c.perJobDigests = perJob }
}

// WithObs enables the observability layer for every cell: each backend
// collects a metrics snapshot (CellResult.Obs) and a span trace
// (CellResult.Trace), exportable as one Chrome trace-event document via
// MatrixResult.WriteTrace. Off by default; the instrumentation is
// nil-checked out of every hot path, so a run without WithObs pays
// nothing. Sim-backend captures are deterministic: same spec, same
// snapshot, bit-identical trace.
func WithObs() RunOption { return func(c *runConfig) { c.obs = true } }

// WithRecordTrace writes one versioned workload trace per cell into dir
// (which must exist): materialized cells record their job set,
// generative cells record every streamed job as the simulator pulls it.
// A recorded trace replayed through ReplayScenario reproduces the cell's
// fingerprint bit-for-bit. Sim backend only — recording is rejected by
// the wall-clock backends.
func WithRecordTrace(dir string) RunOption {
	return func(c *runConfig) { c.recordDir = dir }
}

// WithFailFast aborts dispatch after the first failed cell: in-flight
// cells finish, cells not yet dispatched are marked with ErrCellSkipped,
// and the first failure is surfaced in the joined error. With a single
// worker the abort point is fully deterministic.
func WithFailFast() RunOption { return func(c *runConfig) { c.failFast = true } }

// ErrCellSkipped marks cells that were never dispatched because the run
// was canceled or aborted early (WithFailFast) before they were reached.
var ErrCellSkipped = errors.New("harness: cell skipped before dispatch")

// defaultBackend is the SimBackend shared by every Run that does not
// select one, so scratch storage pooled across runs keeps being reused.
var defaultBackend = NewSimBackend()

// Run executes every cell of the matrix over a bounded worker pool on
// the configured backend (the deterministic SimBackend unless
// WithBackend says otherwise) and returns the merged result.
//
// Cancellation: when ctx is canceled mid-run, no further cells are
// dispatched, in-flight cells are wound down (the sim backend at cell
// boundaries, the live backend immediately), every worker goroutine
// exits before Run returns, and the error is ctx.Err(). Cells that never
// ran are marked with ErrCellSkipped in the partial result.
//
// Otherwise the returned error joins all per-cell failures (the
// MatrixResult is still returned alongside it).
func Run(ctx context.Context, m Matrix, opts ...RunOption) (*MatrixResult, error) {
	norm, err := m.normalize()
	if err != nil {
		return nil, err
	}
	cfg := runConfig{backend: defaultBackend}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.backend == nil {
		cfg.backend = defaultBackend
	}
	cells := norm.cells()
	byName := make(map[string]Scenario, len(norm.Scenarios))
	for _, sc := range norm.Scenarios {
		byName[sc.Name] = sc
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	start := time.Now()
	backendName := cfg.backend.Name()
	out := &MatrixResult{Cells: make([]CellResult, len(cells)), Workers: workers}
	// Pre-mark every cell as skipped; cells that actually run overwrite
	// their slot, so a canceled or fail-fast run leaves an honest partial
	// result instead of zero-valued cells.
	for i := range cells {
		out.Cells[i] = CellResult{Cell: cells[i], Backend: backendName, Err: ErrCellSkipped}
	}

	var observe func(CellResult)
	if cfg.progress != nil {
		var mu sync.Mutex
		observe = func(cr CellResult) {
			mu.Lock()
			defer mu.Unlock()
			cfg.progress(cr)
		}
	}

	// dispatchCtx controls dispatch only: the caller's ctx, plus an
	// internal trigger for fail-fast aborts. Cells themselves run under
	// the caller's ctx (not dispatchCtx), so a fail-fast abort stops
	// further dispatch while letting in-flight cells finish — only a
	// real caller cancel tears running cells down.
	dispatchCtx, stopDispatch := context.WithCancel(ctx)
	defer stopDispatch()

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if dispatchCtx.Err() != nil {
					continue // drained after cancel/abort: stays ErrCellSkipped
				}
				c := cells[i]
				spec := CellSpec{
					Cell:          c,
					Scenario:      byName[c.Scenario],
					MaxTokenRate:  norm.MaxTokenRate,
					Period:        norm.Period,
					Duration:      norm.Duration,
					SFQDepth:      norm.SFQDepth,
					PerJobDigests: cfg.perJobDigests,
					Faults:        c.Faults,
					Admission:     norm.Admission,
					Obs:           cfg.obs,
					RecordDir:     cfg.recordDir,
				}
				cellCtx, cancelCell := ctx, context.CancelFunc(nil)
				if cfg.cellTimeout > 0 {
					cellCtx, cancelCell = context.WithTimeout(ctx, cfg.cellTimeout)
				}
				outcome, err := cfg.backend.RunCell(cellCtx, spec)
				if cancelCell != nil {
					cancelCell()
				}
				cr := CellResult{
					Cell:          c,
					Backend:       backendName,
					Result:        outcome.Result,
					LatencyDigest: outcome.LatencyDigest,
					JobDigests:    outcome.JobDigests,
					Obs:           outcome.Obs,
					Trace:         outcome.Trace,
					Err:           err,
				}
				if sc := spec.Scenario; err == nil &&
					(sc.Stream != nil || sc.Source != nil || outcome.TracePath != "") {
					mode := "jobs"
					if sc.Stream != nil {
						mode = "stream"
					}
					cr.Workload = &WorkloadInfo{
						Mode:       mode,
						Source:     sc.Source,
						StreamJobs: outcome.Result.StreamJobs,
						TracePath:  outcome.TracePath,
					}
				}
				out.Cells[i] = cr
				if err != nil && cfg.failFast {
					stopDispatch()
				}
				if observe != nil {
					observe(cr)
				}
			}
		}()
	}
dispatch:
	for i := range cells {
		select {
		case idx <- i:
		case <-dispatchCtx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	out.Elapsed = time.Since(start)

	if err := ctx.Err(); err != nil {
		return out, err
	}
	var errs []error
	skipped := 0
	for _, cr := range out.Cells {
		switch {
		case cr.Err == nil:
		case errors.Is(cr.Err, ErrCellSkipped):
			skipped++
		default:
			errs = append(errs, fmt.Errorf("cell %v: %w", cr.Cell, cr.Err))
		}
	}
	if skipped > 0 {
		errs = append(errs, fmt.Errorf("%w (%d cells undispatched after abort)", ErrCellSkipped, skipped))
	}
	return out, errors.Join(errs...)
}

// ---- deterministic merging ----

// DefaultCILevel is the confidence level Report uses for the policy-mean
// interval columns.
const DefaultCILevel = 0.95

// Report merges the per-cell results into experiment tables: one row per
// cell, then per-scenario policy means with Student-t confidence
// intervals at the default 95% level and AdapTBF-style gain columns.
// The output is a pure function of the cells in canonical order.
func (r *MatrixResult) Report() *experiments.Report {
	return r.ReportCI(DefaultCILevel)
}

// ReportCI is Report with an explicit confidence level in (0,1) for the
// policy-mean interval columns.
func (r *MatrixResult) ReportCI(level float64) *experiments.Report {
	// Summarize walks every timeline bin of every job; do it once per cell
	// and share the summaries between the two tables.
	return r.ReportCIWith(r.Summaries(), level)
}

// ReportCIWith is ReportCI over precomputed per-cell summaries (from
// Summaries), for callers producing several views of the same matrix.
func (r *MatrixResult) ReportCIWith(sums []metrics.Summary, level float64) *experiments.Report {
	rep := &experiments.Report{
		ID:    "matrix",
		Title: fmt.Sprintf("Scenario matrix (%d cells)", len(r.Cells)),
	}
	rep.Tables = append(rep.Tables, r.cellTable(sums), r.policyMeansTable(sums, level))
	return rep
}

func (r *MatrixResult) cellTable(sums []metrics.Summary) experiments.Table {
	t := experiments.Table{
		Name:   "matrix-cells",
		Header: []string{"scenario", "policy", "scale", "OSSes", "seed", "faults", "overall MiB/s", "makespan (s)", "done", "RPCs", "lat p50/p99", "goodput %", "rej/shed"},
	}
	for i, cr := range r.Cells {
		c := cr.Cell
		row := []string{c.Scenario, c.Policy.String(),
			fmt.Sprintf("%d", c.Scale), fmt.Sprintf("%d", c.OSSes), fmt.Sprintf("%d", c.Seed),
			c.Faults.String()}
		if cr.Err != nil {
			row = append(row, "ERROR: "+cr.Err.Error(), "-", "-", "-", "-", "-", "-")
		} else {
			lat := "-"
			if d := cr.LatencyDigest; d != nil && d.N() > 0 {
				lat = fmt.Sprintf("%v / %v",
					d.Quantile(50).Round(100*time.Microsecond),
					d.Quantile(99).Round(100*time.Microsecond))
			}
			// Goodput rides beside every latency column: a shed-heavy cell
			// with a flattering p99 must confess what it turned away.
			row = append(row,
				metrics.FormatMiBps(sums[i].OverallMiBps),
				fmt.Sprintf("%.1f", cr.Result.Elapsed.Seconds()),
				fmt.Sprintf("%v", cr.Result.Done),
				fmt.Sprintf("%d", cr.Result.ServedRPCs),
				lat,
				fmt.Sprintf("%.1f", cr.Result.GoodputPct()),
				fmt.Sprintf("%d/%d", cr.Result.Rejected, cr.Result.Shed),
			)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// policyMeansTable averages each scenario×policy×faults group's overall
// bandwidth, makespan, and goodput over the scale, OSS, and seed axes —
// with Student-t confidence-interval half-widths at the given level (the
// seed axis is what populates the groups in a replicated sweep) — and
// reports the percentage delta against the group's NoBW mean when one
// exists.
func (r *MatrixResult) policyMeansTable(sums []metrics.Summary, level float64) experiments.Table {
	pct := fmt.Sprintf("%g", level*100)
	t := experiments.Table{
		Name: "matrix-policy-means",
		Header: []string{"scenario", "policy", "faults", "n",
			"mean MiB/s", "±" + pct + "% CI",
			"mean makespan (s)", "±" + pct + "% CI",
			"mean goodput %",
			"vs No BW (%)"},
	}
	groups := r.PolicyGroups(sums)
	for i := range groups {
		g := &groups[i]
		mean := g.BW.Mean()
		delta := "-"
		if base := NoBWBaseline(groups, g.Scenario, g.Faults); base != nil && base.BW.Mean() > 0 && g.Policy != sim.NoBW {
			delta = fmt.Sprintf("%+.1f", (mean-base.BW.Mean())/base.BW.Mean()*100)
		}
		ci := func(m *stats.Moments) string {
			if m.N() < 2 {
				return "-"
			}
			return fmt.Sprintf("%.1f", m.CIHalfWidth(level))
		}
		t.Rows = append(t.Rows, []string{
			g.Scenario, g.Policy.String(), g.Faults.String(),
			fmt.Sprintf("%d", g.BW.N()),
			metrics.FormatMiBps(mean), ci(&g.BW),
			fmt.Sprintf("%.1f", g.Makespan.Mean()), ci(&g.Makespan),
			fmt.Sprintf("%.1f", g.Goodput.Mean()),
			delta,
		})
	}
	return t
}

// A PolicyGroup is one scenario×policy×faults aggregate of a merged
// matrix: streaming moments of the group's per-cell overall bandwidth,
// makespan, and goodput over the scale, OSS, and seed axes. It is the
// single canonical fold behind both the rendered policy-means table and
// the JSON document's policy_means section, so the two can never
// disagree. Faults joins the key because mixing faulted and clean cells
// into one mean would answer no question anyone asked.
type PolicyGroup struct {
	Scenario string
	Policy   sim.Policy
	Faults   FaultProfile
	BW       stats.Moments // per-cell overall MiB/s
	Makespan stats.Moments // per-cell makespan, seconds
	Goodput  stats.Moments // per-cell goodput percentage
}

// Summaries computes each cell's timeline summary in cell order (zero
// value for errored cells). Summarize walks every timeline bin of every
// job, so callers producing several views of the same matrix should
// compute this once and share it.
func (r *MatrixResult) Summaries() []metrics.Summary {
	sums := make([]metrics.Summary, len(r.Cells))
	for i, cr := range r.Cells {
		if cr.Err == nil {
			sums[i] = cr.Result.Timeline.Summarize()
		}
	}
	return sums
}

// PolicyGroups folds the non-failed cells into scenario×policy×faults
// moment accumulators in first-appearance (canonical) order. sums must
// be the result of Summaries (pass nil to have it computed here).
func (r *MatrixResult) PolicyGroups(sums []metrics.Summary) []PolicyGroup {
	if sums == nil {
		sums = r.Summaries()
	}
	type key struct {
		scenario string
		policy   sim.Policy
		faults   FaultProfile
	}
	index := make(map[key]int)
	var groups []PolicyGroup
	for i, cr := range r.Cells {
		if cr.Err != nil {
			continue
		}
		k := key{cr.Cell.Scenario, cr.Cell.Policy, cr.Cell.Faults}
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, PolicyGroup{Scenario: k.scenario, Policy: k.policy, Faults: k.faults})
		}
		groups[gi].BW.Add(sums[i].OverallMiBps)
		groups[gi].Makespan.Add(cr.Result.Elapsed.Seconds())
		groups[gi].Goodput.Add(cr.Result.GoodputPct())
	}
	return groups
}

// NoBWBaseline finds the scenario's NoBW group at the same fault point,
// for the vs-NoBW delta columns (nil when no such cells ran).
func NoBWBaseline(groups []PolicyGroup, scenario string, faults FaultProfile) *PolicyGroup {
	for i := range groups {
		if groups[i].Scenario == scenario && groups[i].Policy == sim.NoBW && groups[i].Faults == faults {
			return &groups[i]
		}
	}
	return nil
}

// Fingerprint digests every cell's raw outcome — per-job byte totals and
// finish times, served RPCs, makespan, per-OSS busy time, and the cell's
// latency digest (count, sum, min, max, every non-empty bucket) — in
// canonical cell order. Two runs of the same matrix must produce
// identical fingerprints regardless of worker count; the determinism
// tests assert exactly that.
func (r *MatrixResult) Fingerprint() string {
	h := sha256.New()
	var b strings.Builder
	for _, cr := range r.Cells {
		b.Reset()
		fmt.Fprintf(&b, "%v|", cr.Cell)
		if cr.Err != nil {
			fmt.Fprintf(&b, "err=%v", cr.Err)
			h.Write([]byte(b.String()))
			continue
		}
		res := cr.Result
		fmt.Fprintf(&b, "elapsed=%d|done=%v|rpcs=%d|", res.Elapsed, res.Done, res.ServedRPCs)
		// Admission outcomes join the digest only when admission actually
		// turned work away: an always-admit run (or any policy that never
		// fired) hashes exactly as it did before the field existed, so the
		// golden fingerprint is stable across the feature's introduction.
		if res.Rejected+res.Shed > 0 {
			fmt.Fprintf(&b, "adm=%d:%d:%d:%d|", res.Rejected, res.Shed, res.OfferedBytes, res.GoodputBytes)
		}
		// Stream cells carry their outcome in digests rather than per-job
		// slices; fold those in with the same conditional-segment rule so
		// materialized cells hash exactly as before streams existed.
		if res.StreamJobs > 0 {
			fmt.Fprintf(&b, "stream=%d|", res.StreamJobs)
			if res.StreamWaitDigest != nil {
				res.StreamWaitDigest.WriteFingerprint(&b)
				b.WriteByte('|')
			}
			if res.StreamJobDigest != nil {
				res.StreamJobDigest.WriteFingerprint(&b)
				b.WriteByte('|')
			}
		}
		jobs := res.Timeline.Jobs()
		for _, j := range jobs {
			fmt.Fprintf(&b, "job=%s:%d|", j, res.Timeline.TotalBytes(j))
		}
		finish := make([]string, 0, len(res.FinishTimes))
		for j := range res.FinishTimes {
			finish = append(finish, j)
		}
		sort.Strings(finish)
		for _, j := range finish {
			fmt.Fprintf(&b, "finish=%s:%d|", j, res.FinishTimes[j])
		}
		for i, d := range res.DeviceBusy {
			fmt.Fprintf(&b, "busy%d=%d|", i, d)
		}
		if cr.LatencyDigest != nil {
			cr.LatencyDigest.WriteFingerprint(&b)
			b.WriteByte('|')
		}
		h.Write([]byte(b.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteTrace exports every traced cell as one Chrome trace-event JSON
// document (loadable in Perfetto or chrome://tracing): one trace process
// per cell in canonical cell order, threads within it per OSS plus the
// control-plane tracks. cellFilter, when non-empty, keeps only cells
// whose String() coordinates contain it as a substring. Sim-backend
// traces are deterministic — the written bytes are a pure function of
// the matrix and the filter.
func (r *MatrixResult) WriteTrace(w io.Writer, cellFilter string) error {
	var procs []obs.TraceProcess
	for _, cr := range r.Cells {
		if len(cr.Trace) == 0 {
			continue
		}
		name := cr.Cell.String()
		if cellFilter != "" && !strings.Contains(name, cellFilter) {
			continue
		}
		procs = append(procs, obs.TraceProcess{Name: name, Events: cr.Trace})
	}
	return obs.WriteChromeTrace(w, procs)
}
