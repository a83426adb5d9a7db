package harness

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adaptbf/internal/experiments"
	"adaptbf/internal/sim"
	"adaptbf/internal/workload"
)

// acceptanceMatrix is the ≥24-cell matrix the engine is held to: 3
// scenarios × 4 policies × 2 OSS counts (= 24 cells), at 1/64 of the
// paper's volumes so the whole grid runs in well under a second per
// worker-sweep.
func acceptanceMatrix() Matrix {
	return Matrix{
		Scenarios: DefaultScenarios(),
		Policies:  []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ},
		Scales:    []int64{64},
		OSSes:     []int{1, 2},
		Seeds:     []int64{1},
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	m := acceptanceMatrix()
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 {
		t.Fatalf("expanded %d cells, want 24", len(cells))
	}
	// Scenario is the slowest axis, seed the fastest; indexes are dense.
	if cells[0].Scenario != "striped-seq" || cells[len(cells)-1].Scenario != "staggered-burst" {
		t.Fatalf("unexpected scenario order: first %v last %v", cells[0], cells[len(cells)-1])
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	// Expansion itself is deterministic.
	again, _ := m.Cells()
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("two expansions of the same matrix differ")
	}
}

// TestWorkerCountInvariance is the engine's core determinism contract:
// the merged output of a 24-cell matrix is identical whether one worker
// runs the cells strictly sequentially or NumCPU workers race through
// them. Run under -race this also exercises the pool for data races.
func TestWorkerCountInvariance(t *testing.T) {
	m := acceptanceMatrix()
	seq, err := Run(context.Background(), m, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	par, err := Run(context.Background(), m, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Fingerprint() != par.Fingerprint() {
		t.Fatalf("workers=1 and workers=%d diverge:\n%s\nvs\n%s",
			workers, seq.Fingerprint(), par.Fingerprint())
	}
	seqRep, parRep := seq.Report(), par.Report()
	if !reflect.DeepEqual(seqRep.Tables, parRep.Tables) {
		t.Fatalf("merged reports differ between worker counts")
	}
	if len(seqRep.Tables) == 0 || len(seqRep.Tables[0].Rows) != 24 {
		t.Fatalf("cell table malformed: %+v", seqRep.Tables)
	}
}

// TestAllPoliciesInvariants runs a matrix spanning all five policies and
// checks system-level token/byte conservation in every cell: the run
// completes, and every byte every process issued is served exactly once
// across the striped OSSes — no loss, no duplication, whatever the
// policy, stripe width, OSS count, or seed.
func TestAllPoliciesInvariants(t *testing.T) {
	m := Matrix{
		Scenarios: DefaultScenarios(),
		Policies:  []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ, sim.GIFT},
		Scales:    []int64{128},
		OSSes:     []int{1, 3},
		Seeds:     []int64{1, 7},
	}
	res, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Scenario{}
	for _, sc := range m.Scenarios {
		byName[sc.Name] = sc
	}
	for _, cr := range res.Cells {
		want := int64(0)
		for _, j := range byName[cr.Cell.Scenario].Jobs(cr.Cell.Params()) {
			want += j.TotalBytes()
		}
		r := cr.Result
		if !r.Done {
			t.Errorf("%v: bounded cell did not finish", cr.Cell)
			continue
		}
		if got := r.Timeline.GrandTotalBytes(); got != want {
			t.Errorf("%v: served %d bytes, want %d", cr.Cell, got, want)
		}
		if int64(r.ServedRPCs)*workload.DefaultRPCBytes != want {
			t.Errorf("%v: %d RPCs × 1 MiB ≠ %d bytes", cr.Cell, r.ServedRPCs, want)
		}
		if len(r.DeviceBusy) != cr.Cell.OSSes {
			t.Errorf("%v: %d OSS stats, want %d", cr.Cell, len(r.DeviceBusy), cr.Cell.OSSes)
		}
		var busy time.Duration
		for _, d := range r.DeviceBusy {
			busy += d
		}
		if busy == 0 {
			t.Errorf("%v: no device time consumed", cr.Cell)
		}
	}
}

// TestSeedAxisMatters: the seed must actually flow into the workloads —
// two seeds of the same cell produce different phasings, hence different
// fingerprints.
func TestSeedAxisMatters(t *testing.T) {
	base := Matrix{
		Scenarios: []Scenario{StaggeredBurstScenario()},
		Policies:  []sim.Policy{sim.AdapTBF},
		Scales:    []int64{128},
	}
	a := base
	a.Seeds = []int64{1}
	b := base
	b.Seeds = []int64{2}
	ra, err := Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	// Compare outcomes, not fingerprints: the fingerprint includes the
	// seed coordinate, which would differ trivially.
	if ra.Cells[0].Result.Elapsed == rb.Cells[0].Result.Elapsed &&
		ra.Cells[0].Result.FinishTimes["wave.n06"] == rb.Cells[0].Result.FinishTimes["wave.n06"] {
		t.Fatal("seed axis had no effect on the simulation")
	}
}

func TestStripeNarrowerThanStack(t *testing.T) {
	// A 1-wide stripe on a 4-OSS stack must keep each file on one OSS:
	// with four single-striped procs placed round-robin, all four OSSes
	// work, but each stream's bytes land on exactly one device. The
	// observable contract here: the run completes and spreads real work
	// across more than one OSS.
	m := Matrix{
		Scenarios: []Scenario{{
			Name: "narrow",
			Jobs: func(p CellParams) []workload.Job {
				return []workload.Job{workload.StripedSequential("one.n01", 1, 4, 8*mib, 1)}
			},
		}},
		Policies: []sim.Policy{sim.NoBW},
		OSSes:    []int{4},
	}
	res, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0].Result
	if !r.Done {
		t.Fatal("narrow-stripe run did not finish")
	}
	active := 0
	for _, d := range r.DeviceBusy {
		if d > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("only %d of 4 OSSes active; round-robin placement broken", active)
	}
}

func TestRunSurfacesCellErrors(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{
			{Name: "bad", Jobs: func(CellParams) []workload.Job { return nil }},
			{Name: "good", Jobs: func(p CellParams) []workload.Job {
				return []workload.Job{workload.Continuous("ok.n01", 1, 1, 2*mib)}
			}},
		},
		Policies: []sim.Policy{sim.NoBW},
	}
	res, err := Run(context.Background(), m)
	if err == nil {
		t.Fatal("invalid scenario produced no error")
	}
	if res == nil || len(res.Cells) != 2 {
		t.Fatalf("partial results missing: %+v", res)
	}
	if res.Cells[0].Err == nil || res.Cells[1].Err != nil {
		t.Fatalf("wrong cells errored: %v / %v", res.Cells[0].Err, res.Cells[1].Err)
	}
	// The report still renders, flagging the failed cell.
	rep := res.Report()
	if len(rep.Tables[0].Rows) != 2 {
		t.Fatal("failed cell missing from report")
	}
}

func TestMatrixValidation(t *testing.T) {
	bad := []Matrix{
		{},
		{Scenarios: []Scenario{{Name: "x"}}},
		{Scenarios: []Scenario{{Name: "x", Jobs: func(CellParams) []workload.Job { return nil }},
			{Name: "x", Jobs: func(CellParams) []workload.Job { return nil }}}},
		{Scenarios: DefaultScenarios(), Scales: []int64{0}},
		{Scenarios: DefaultScenarios(), OSSes: []int{0}},
	}
	for i, m := range bad {
		if _, err := Run(context.Background(), m); err == nil {
			t.Errorf("bad matrix %d accepted", i)
		}
	}
}

func TestOnCellObservesEveryCell(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF},
		Scales:    []int64{256},
		OSSes:     []int{1, 2},
	}
	seen := map[int]bool{}
	_, err := Run(context.Background(), m, WithWorkers(4), WithProgress(func(cr CellResult) {
		if seen[cr.Cell.Index] {
			t.Errorf("cell %d observed twice", cr.Cell.Index)
		}
		seen[cr.Cell.Index] = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("observed %d cells, want 4", len(seen))
	}
}

func TestScenariosByName(t *testing.T) {
	scs, err := ScenariosByName([]string{"mixed-rw", "striped-seq"})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[0].Name != "mixed-rw" || scs[1].Name != "striped-seq" {
		t.Fatalf("wrong scenarios resolved: %v", scs)
	}
	if _, err := ScenariosByName([]string{"nope"}); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestPolicyMeansCIColumns: a seed-replicated matrix must produce
// policy-mean rows with sample counts and Student-t interval columns,
// and the digest-driven latency column must populate the cell table.
func TestPolicyMeansCIColumns(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF},
		Scales:    []int64{512},
		OSSes:     []int{1},
		Seeds:     []int64{1, 2, 3, 4, 5},
	}
	res, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.ReportCI(0.95)
	var means, cells *experiments.Table
	for i := range rep.Tables {
		switch rep.Tables[i].Name {
		case "matrix-policy-means":
			means = &rep.Tables[i]
		case "matrix-cells":
			cells = &rep.Tables[i]
		}
	}
	if means == nil || cells == nil {
		t.Fatal("report tables missing")
	}
	wantHeader := []string{"scenario", "policy", "faults", "n", "mean MiB/s", "±95% CI",
		"mean makespan (s)", "±95% CI", "mean goodput %", "vs No BW (%)"}
	if !reflect.DeepEqual(means.Header, wantHeader) {
		t.Fatalf("policy-means header = %v", means.Header)
	}
	if len(means.Rows) != 2 {
		t.Fatalf("want 2 policy groups, got %d", len(means.Rows))
	}
	for _, row := range means.Rows {
		if row[3] != "5" {
			t.Fatalf("group n = %q, want 5 (one per seed)", row[3])
		}
		if row[5] == "-" || row[7] == "-" {
			t.Fatalf("CI columns empty for a 5-seed group: %v", row)
		}
		if row[8] != "100.0" {
			t.Fatalf("admission-free group goodput = %q, want 100.0", row[8])
		}
	}
	latCol := len(cells.Header) - 3
	if cells.Header[latCol] != "lat p50/p99" {
		t.Fatalf("cell table missing latency column: %v", cells.Header)
	}
	for _, row := range cells.Rows {
		if row[latCol] == "-" || row[latCol] == "" {
			t.Fatalf("cell row missing digest latency: %v", row)
		}
	}
	for _, cr := range res.Cells {
		if cr.LatencyDigest == nil || cr.LatencyDigest.N() == 0 {
			t.Fatalf("cell %v missing latency digest", cr.Cell)
		}
		if cr.LatencyDigest.N() != int64(cr.Result.ServedRPCs) {
			t.Fatalf("cell %v digest n=%d != served RPCs %d",
				cr.Cell, cr.LatencyDigest.N(), cr.Result.ServedRPCs)
		}
	}
}
