package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"adaptbf/internal/harness"
	"adaptbf/internal/stats"
)

// The smoke tests run every workload and the traced ledger at tiny sizes
// through the real parent/child path, so benchmark rot — a renamed seam, a
// metric no longer emitted — fails `go test` here long before anyone
// needs a number.

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

const repoRoot = ".."

func smokeConfig(t *testing.T) (config, *benchSpec) {
	t.Helper()
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, smoke: true, root: repoRoot, spans: filepath.Join(t.TempDir(), "spans.json")}, spec
}

// nodeBin builds adaptbf-node for the remote workload; under -short the
// remote parts are skipped instead (each remote cell waits out a 5 s drain).
func nodeBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		return ""
	}
	bin := filepath.Join(t.TempDir(), "adaptbf-node")
	if out, err := exec.Command("go", "build", "-o", bin, "adaptbf/cmd/adaptbf-node").CombinedOutput(); err != nil {
		t.Fatalf("building adaptbf-node: %v\n%s", err, out)
	}
	return bin
}

// assertEmitted checks the run carries exactly the wanted metric names,
// each finite, and that the printed last line is the contract's object.
func assertEmitted(t *testing.T, spec *benchSpec, run *runResult, want []metricDef) {
	t.Helper()
	for _, e := range run.Errors {
		t.Errorf("%s: %s", run.Workload, e)
	}
	if !run.Correct || run.Attempted < 1 || run.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", run.Workload, run.Correct, run.Attempted, run.Failed)
	}
	var buf bytes.Buffer
	printRun(&buf, spec, run)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", run.Workload, err, lines[len(lines)-1])
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Errorf("%s: last line lacks correct/attempted/failed", run.Workload)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, want %d", run.Workload, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s: metric %s not emitted", run.Workload, m.Name)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: metric %s = %v", run.Workload, m.Name, *got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", run.Workload, m.Name, got.Unit, m.Unit)
		case strings.Count(buf.String(), "\n"+m.Name+" ") != 1:
			t.Errorf("%s: metric %s is not printed exactly once", run.Workload, m.Name)
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	c, spec := smokeConfig(t)
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			if wl.Name == "remote-cell" {
				if c.nodeBin = nodeBin(t); c.nodeBin == "" {
					t.Skip("remote-cell waits out a 5 s drain per cell")
				}
			}
			run, err := runOnce(c, spec, wl.Name, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			assertEmitted(t, spec, run, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if run.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, m.Name, run.Metrics[m.Name].Value)
				}
			}
			if sim := strings.HasPrefix(wl.Name, "sim-"); sim != (run.Fingerprint != "") {
				t.Errorf("%s: fingerprint %q", wl.Name, run.Fingerprint)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	c, spec := smokeConfig(t)
	c.trace = true
	c.nodeBin = nodeBin(t)
	want := spec.PerLayer
	if c.nodeBin == "" {
		// Without a node binary the ledger skips its remote cells.
		want = slices.DeleteFunc(slices.Clone(want), func(m metricDef) bool { return strings.Contains(m.Name, "remote") })
		spec = &benchSpec{Workloads: spec.Workloads, PerLayer: want}
	}
	run, err := runOnce(c, spec, spec.Workloads[0].Name, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	assertEmitted(t, spec, run, want)
	data, err := os.ReadFile(run.SpanFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("span file: %v", err)
	}
	for _, name := range []string{"pass", "harness.Run", "backend.RunCell", "scenario.Jobs", "workgen.Next", "report.FromMatrix", "Document.JSON", "MatrixResult.Fingerprint"} {
		if !slices.ContainsFunc(doc.TraceEvents, func(e struct{ Name string }) bool { return e.Name == name }) {
			t.Errorf("span file has no %s span", name)
		}
	}
}

// TestChecksFire breaks a good result one rule at a time: a correctness
// check that cannot fail is not a check.
func TestChecksFire(t *testing.T) {
	c, _ := smokeConfig(t)
	for _, name := range []string{"sim-stream", "live-flatout"} {
		p, err := buildPlan(name, c.env(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		good, err := p.runPass(p.timed[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, failed, errs := p.check(good.res); failed != 0 || len(errs) != 0 {
			t.Fatalf("%s: unbroken result fails its checks: %v", name, errs)
		}
		breaks := map[string]func(c *harness.CellResult){
			"cell error":         func(c *harness.CellResult) { c.Err = errors.New("boom") },
			"no result":          func(c *harness.CellResult) { c.Result = nil },
			"digest count":       func(c *harness.CellResult) { c.Result.ServedRPCs++ },
			"lost bytes":         func(c *harness.CellResult) { c.Result.GoodputBytes-- },
			"rejected":           func(c *harness.CellResult) { c.Result.Rejected++ },
			"shed":               func(c *harness.CellResult) { c.Result.Shed++ },
			"nothing served":     func(c *harness.CellResult) { c.Result.ServedRPCs = 0; c.LatencyDigest = stats.NewDigest() },
			"job starved":        func(c *harness.CellResult) { p.jobs = []string{"ghost.n01"} },
			"stream cut short":   func(c *harness.CellResult) { p.streamJobs++ },
			"stream unaccounted": func(c *harness.CellResult) { p.streamJobs, c.Workload = 1, nil },
		}
		for what, breakIt := range breaks {
			saved := *p
			res := *good.res
			res.Cells = slices.Clone(good.res.Cells)
			cell := &res.Cells[len(res.Cells)-1]
			if cell.Result != nil {
				r := *cell.Result
				cell.Result = &r
			}
			breakIt(cell)
			if _, failed, errs := p.check(&res); failed == 0 || len(errs) == 0 {
				t.Errorf("%s: %s goes unnoticed", name, what)
			}
			*p = saved
		}
	}

	rep := &childReport{}
	rep.sameBehaviour("sim-grid", 0, "abc", 10)
	rep.sameBehaviour("sim-grid", 0, "abc", 10)
	if len(rep.Errors) != 0 {
		t.Errorf("identical passes flagged: %v", rep.Errors)
	}
	rep.sameBehaviour("sim-grid", 1, "xyz", 20)
	rep.sameBehaviour("sim-grid", 0, "abd", 10)
	rep.sameBehaviour("sim-grid", 1, "xyz", 21)
	if len(rep.Errors) != 2 {
		t.Errorf("a moved fingerprint and a moved event count should each be flagged, got %v", rep.Errors)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %v %v %v", q1, q2, q3)
	}
	if s := summarize([]float64{4}); s.Value != 4 || s.spread() != 0 || s.N != 1 {
		t.Errorf("single sample = %+v", s)
	}
}

func TestDigestQuantileInterpolates(t *testing.T) {
	d := stats.NewDigest()
	for i := 0; i < 10000; i++ {
		d.Add(time.Duration(100+i%50) * time.Microsecond)
	}
	prev := 0.0
	for p := 1.0; p < 100; p++ {
		q := digestQuantile(d, p)
		if q < prev || q < 100 || q > 150 {
			t.Fatalf("p%v = %v after %v", p, q, prev)
		}
		prev = q
	}
	if stepped := float64(d.Quantile(50)) / 1e3; stepped == digestQuantile(d, 50) {
		t.Errorf("p50 sits exactly on the bucket bound %v: not interpolated", stepped)
	}
}

func TestCompare(t *testing.T) {
	set := func(stamp string, seeds []int64, pass []float64) string {
		f := resultFile{Machine: machineStamp{CPU: stamp}, Seconds: 1}
		for i, seed := range seeds {
			f.Runs = append(f.Runs, runResult{Workload: "sim-grid", Seed: seed, Correct: true,
				Metrics: map[string]summary{"pass_s": summarize([]float64{pass[i]})}})
		}
		path := filepath.Join(t.TempDir(), "set.json")
		data, _ := json.Marshal(f)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	seeds := []int64{1, 2, 3, 4}
	steady := []float64{1.00, 1.01, 1.02, 1.03}
	base := set("a", seeds, steady)
	for name, tc := range map[string]struct {
		head    string
		wantErr string
		wantOut string
	}{
		"same":          {set("a", seeds, steady), "", " ok"},
		"regression":    {set("a", seeds, []float64{1.30, 1.31, 1.32, 1.33}), "regression", "REGRESSION"},
		"other machine": {set("b", seeds, steady), "machines", ""},
		"other seeds":   {set("a", []int64{5, 6, 7, 8}, steady), "seeds", ""},
	} {
		var out bytes.Buffer
		err := compareFiles(repoRoot, base, tc.head, &out)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.wantErr)
		}
		if !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: output lacks %q:\n%s", name, tc.wantOut, out.String())
		}
	}
	// A base whose own runs wander more than the bound resolves nothing...
	noisy := set("a", seeds, []float64{0.8, 1.0, 1.2, 1.4})
	var out bytes.Buffer
	if err := compareFiles(repoRoot, noisy, set("a", seeds, []float64{1.3, 1.3, 1.3, 1.3}), &out); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy base: err %v, output:\n%s", err, out.String())
	}
	// ...unless every head run beats every base run.
	out.Reset()
	if err := compareFiles(repoRoot, noisy, set("a", seeds, []float64{0.5, 0.5, 0.5, 0.5}), &out); err != nil || !strings.Contains(out.String(), " ok") {
		t.Errorf("clear win over a noisy base: err %v, output:\n%s", err, out.String())
	}
}

// TestSpecContract holds BENCHMARK.json to the limits its consumer sets.
func TestSpecContract(t *testing.T) {
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}
