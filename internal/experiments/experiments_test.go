package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptbf/internal/race"
	"adaptbf/internal/sim"
)

// testParams shrinks the paper's volumes 8× so each experiment runs in
// milliseconds while preserving the dynamics under test.
func testParams() Params {
	p := DefaultParams()
	p.Scale = 8
	return p
}

func avgOf(rep *Report, pol sim.Policy, job string) float64 {
	return rep.Timelines[pol].Summarize().PerJob[job].AvgMiBps
}

func overallOf(rep *Report, pol sim.Policy) float64 {
	return rep.Timelines[pol].Summarize().OverallMiBps
}

func TestAllocationExperimentShape(t *testing.T) {
	rep, err := RunAllocation(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if !res.Done {
			t.Fatalf("%v did not finish", res.Policy)
		}
	}

	// Fig 3(a): No BW is priority-blind — job1 (10%) and job4 (50%) end up
	// with comparable bandwidth.
	lo := avgOf(rep, sim.NoBW, "job1.n01")
	hi := avgOf(rep, sim.NoBW, "job4.n04")
	if r := hi / lo; r > 1.4 {
		t.Errorf("NoBW job4/job1 bandwidth ratio %.2f, want ~1 (priority-blind)", r)
	}

	// Fig 3(c): AdapTBF ranks bandwidth by priority. Whole-run averages
	// compress the ratios (low-priority jobs speed up once the others
	// finish — that is the work conservation under test below), so the
	// proportionality check uses the phase where all four jobs are active.
	b1 := avgOf(rep, sim.AdapTBF, "job1.n01")
	b3 := avgOf(rep, sim.AdapTBF, "job3.n03")
	b4 := avgOf(rep, sim.AdapTBF, "job4.n04")
	if !(b4 > b3 && b3 > b1) {
		t.Errorf("AdapTBF bandwidth not priority-ordered: j1=%.0f j3=%.0f j4=%.0f", b1, b3, b4)
	}
	adapTL := rep.Timelines[sim.AdapTBF]
	coActive := int(rep.Results[sim.AdapTBF].FinishTimes["job4.n04"] / adapTL.BinWidth())
	tp1, tp4 := adapTL.Throughput("job1.n01"), adapTL.Throughput("job4.n04")
	var s1, s4 float64
	for i := coActive / 4; i < coActive*3/4; i++ {
		s1 += tp1[i]
		s4 += tp4[i]
	}
	if r := s4 / s1; r < 3 || r > 7 {
		t.Errorf("AdapTBF co-active j4/j1 ratio %.2f, want ~5 (priorities 50%% vs 10%%)", r)
	}

	// Higher-priority jobs finish earlier under AdapTBF (dynamic active
	// set), and the freed bandwidth is reabsorbed.
	ft := rep.Results[sim.AdapTBF].FinishTimes
	if !(ft["job4.n04"] < ft["job3.n03"] && ft["job3.n03"] < ft["job1.n01"]) {
		t.Errorf("AdapTBF finish order wrong: %v", ft)
	}

	// Fig 4(a): AdapTBF achieves the highest overall throughput; Static BW
	// is clearly the worst (it never reclaims finished jobs' shares).
	oAdap, oNo, oStatic := overallOf(rep, sim.AdapTBF), overallOf(rep, sim.NoBW), overallOf(rep, sim.StaticBW)
	if oAdap < oNo*0.97 {
		t.Errorf("AdapTBF overall %.0f well below NoBW %.0f", oAdap, oNo)
	}
	if oStatic > oAdap*0.8 {
		t.Errorf("Static overall %.0f not clearly below AdapTBF %.0f", oStatic, oAdap)
	}

	// Fig 4(b): significant gains for job3/job4, bounded loss for job1/2.
	if b4 <= avgOf(rep, sim.NoBW, "job4.n04") {
		t.Errorf("job4 has no gain over NoBW: %.0f vs %.0f", b4, avgOf(rep, sim.NoBW, "job4.n04"))
	}
}

func TestRedistributionExperimentShape(t *testing.T) {
	rep, err := RunRedistribution(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6(b): the bursty high-priority jobs gain significantly over
	// No BW (where the continuous job starves them).
	for _, job := range []string{"job1.n01", "job2.n02", "job3.n03"} {
		adap := avgOf(rep, sim.AdapTBF, job)
		no := avgOf(rep, sim.NoBW, job)
		if adap < no*1.2 {
			t.Errorf("%s: AdapTBF %.0f MiB/s not clearly above NoBW %.0f", job, adap, no)
		}
	}
	// Job4 pays for it: AdapTBF limits its throughput below No BW.
	if a4, n4 := avgOf(rep, sim.AdapTBF, "job4.n04"), avgOf(rep, sim.NoBW, "job4.n04"); a4 >= n4 {
		t.Errorf("job4: AdapTBF %.0f not limited below NoBW %.0f", a4, n4)
	}
	// Static BW wastes idle bandwidth: AdapTBF's overall beats it.
	if oA, oS := overallOf(rep, sim.AdapTBF), overallOf(rep, sim.StaticBW); oA <= oS {
		t.Errorf("AdapTBF overall %.0f not above Static %.0f", oA, oS)
	}
}

func TestRecompensationExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment; skipped with -short")
	}
	// Record dynamics need the paper-scale run: at reduced scale only a
	// couple of bursts fire before the demand spikes, so records never
	// accumulate enough to measure repayment.
	p := DefaultParams()
	rep, err := RunRecompensation(p)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Series
	if s == nil {
		t.Fatal("no record series")
	}
	// Fig 7: jobs 1-3 lend during their bursty phases (records reach
	// positive peaks); job4 borrows (negative record).
	for _, job := range []string{"job1.n01", "job2.n02", "job3.n03"} {
		maxLent := 0.0
		for _, pt := range s.Get("record:" + job) {
			if pt.V > maxLent {
				maxLent = pt.V
			}
		}
		if maxLent <= 0 {
			t.Errorf("%s never lent tokens (max record %.1f)", job, maxLent)
		}
	}
	minJ4 := 0.0
	for _, pt := range s.Get("record:job4.n04") {
		if pt.V < minJ4 {
			minJ4 = pt.V
		}
	}
	if minJ4 >= 0 {
		t.Error("job4 never borrowed tokens")
	}

	// Re-compensation: job3 lends for its first 80 s (record grows to a
	// meaningful peak), and once its continuous stream starts at t=80s
	// the framework quickly repays it — the record collapses toward zero
	// within the following 30 s, exactly the Figure 7 dynamic.
	spike := int64(80 * time.Second)
	var peak float64
	dip := math.Inf(1)
	for _, pt := range s.Get("record:job3.n03") {
		switch {
		case pt.T < spike:
			if pt.V > peak {
				peak = pt.V
			}
		case pt.T < spike+int64(30*time.Second):
			if pt.V < dip {
				dip = pt.V
			}
		}
	}
	if peak < 10 {
		t.Errorf("job3 lending peak %.1f before 80s, want a meaningful (>=10 token) record", peak)
	}
	if dip > peak*0.35 {
		t.Errorf("job3 record not repaid after its 80s spike: peak %.1f, post-spike min %.1f", peak, dip)
	}

	// Fig 8(a): AdapTBF performs on par with No BW overall while Static
	// suffers.
	oA, oN, oS := overallOf(rep, sim.AdapTBF), overallOf(rep, sim.NoBW), overallOf(rep, sim.StaticBW)
	if oA < oN*0.85 {
		t.Errorf("AdapTBF overall %.0f not on par with NoBW %.0f", oA, oN)
	}
	if oS >= oA {
		t.Errorf("Static overall %.0f not below AdapTBF %.0f", oS, oA)
	}
}

func TestFrequencySweepShape(t *testing.T) {
	p := testParams()
	rep, err := RunFrequencySweep(p, []time.Duration{100 * time.Millisecond, 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	var fast, slow float64
	if _, err := fmtSscan(rows[0][1], &fast); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(rows[1][1], &slow); err != nil {
		t.Fatal(err)
	}
	// Fig 9: smaller allocation period ⇒ better throughput.
	if fast <= slow {
		t.Errorf("Δt=100ms throughput %.0f not above Δt=2s %.0f", fast, slow)
	}
}

func TestOverheadLinearAndFast(t *testing.T) {
	if race.Enabled {
		t.Skip("wall-clock overhead bounds do not hold under the race detector's slowdown")
	}
	rep, err := RunOverhead([]int{10, 1000})
	if err != nil {
		t.Fatal(err)
	}
	var rows = rep.Tables[0].Rows
	perJob := func(row []string) time.Duration {
		d, err := time.ParseDuration(row[2])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// §IV-G: the paper reports <30 µs per job; allow slack for shared CI
	// machines but demand the same order of magnitude.
	if d := perJob(rows[1]); d > 100*time.Microsecond {
		t.Errorf("allocation cost %v per job at n=1000, want ~µs scale", d)
	}
	// O(n): per-job cost must not grow by more than ~an order of
	// magnitude from n=10 to n=1000 (it should be roughly flat).
	if r := float64(perJob(rows[1])) / float64(perJob(rows[0])); r > 10 {
		t.Errorf("per-job cost grew %.1f× from n=10 to n=1000; not linear", r)
	}
}

// TestControlCycleScalesLinearly: §IV-G rests "decentralized" on the whole
// per-OSS cycle — not the allocation alone — staying linear in the active
// jobs up to 1000. Every rate changes and every queue is loaded, so a rule
// change that re-sorts the rule list or scans every queue shows up as a
// per-job cost growing with the job count.
func TestControlCycleScalesLinearly(t *testing.T) {
	if race.Enabled {
		t.Skip("wall-clock overhead bounds do not hold under the race detector's slowdown")
	}
	perJob := func(n, iterations int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ { // the fastest of three sheds a slow phase of the host
			d, err := MeasureCycle(n, iterations)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, d)
		}
		return best / time.Duration(n)
	}
	at100, at1000 := perJob(100, 200), perJob(1000, 20)
	t.Logf("whole cycle per job: %v at 100 jobs, %v at 1000", at100, at1000)
	if at1000 > 3*at100 {
		t.Errorf("cycle cost per job grew from %v at 100 jobs to %v at 1000; not linear", at100, at1000)
	}
}

func TestReportRenderSmoke(t *testing.T) {
	p := testParams()
	p.Scale = 32
	rep, err := RunAllocation(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Render(&buf, 60)
	out := buf.String()
	for _, want := range []string{"fig3+fig4", "No BW", "AdapTBF", "overall", "job4.n04"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestWriteCSVs(t *testing.T) {
	p := testParams()
	p.Scale = 32
	rep, err := RunAllocation(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := rep.WriteCSVs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 { // 3 tables + 3 timelines
		t.Fatalf("only %d CSVs written", len(files))
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Errorf("csv %s missing or empty", filepath.Base(f))
		}
	}
}

func TestParamsNormalize(t *testing.T) {
	p := Params{}.normalize()
	if p.Scale != 1 || p.MaxTokenRate != 500 || p.Period != 100*time.Millisecond {
		t.Fatalf("normalize gave %+v", p)
	}
	if got := (Params{Scale: 1 << 20}).normalize().fileBytes(1 << 30); got != 1<<20 {
		t.Fatalf("fileBytes floor = %d, want 1 MiB", got)
	}
}

// fmtSscan wraps fmt.Sscanf for table cells.
func fmtSscan(s string, v *float64) (int, error) {
	return sscanf(s, v)
}

func sscanf(s string, v *float64) (int, error) {
	var f float64
	n, err := fmt.Sscanf(s, "%f", &f)
	*v = f
	return n, err
}

func TestSFQComparisonShape(t *testing.T) {
	rep, err := RunSFQComparison(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timelines) != 4 {
		t.Fatalf("timelines = %d, want 4 policies", len(rep.Timelines))
	}
	// SFQ(D), being work-conserving and weighted, must beat Static BW
	// overall and protect the bursty jobs better than No BW.
	oSFQ := overallOf(rep, sim.SFQ)
	oStatic := overallOf(rep, sim.StaticBW)
	if oSFQ <= oStatic {
		t.Errorf("SFQ overall %.0f not above Static %.0f", oSFQ, oStatic)
	}
	for _, job := range []string{"job1.n01", "job3.n03"} {
		if avgOf(rep, sim.SFQ, job) <= avgOf(rep, sim.NoBW, job) {
			t.Errorf("%s under SFQ not above NoBW", job)
		}
	}
	if len(rep.Tables) < 2 {
		t.Fatalf("tables = %d, want bandwidth + latency", len(rep.Tables))
	}
}

// TestWriteCSVsCollisions: tables whose names sanitize to the same slug
// must not overwrite each other, and a name that sanitizes to nothing is
// an error instead of a file called "<id>-.csv".
func TestWriteCSVsCollisions(t *testing.T) {
	rep := &Report{
		ID: "dup",
		Tables: []Table{
			{Name: "same name!", Header: []string{"a"}, Rows: [][]string{{"first"}}},
			{Name: "same-name?", Header: []string{"a"}, Rows: [][]string{{"second"}}},
			{Name: "same_name", Header: []string{"a"}, Rows: [][]string{{"third"}}},
		},
	}
	dir := t.TempDir()
	files, err := rep.WriteCSVs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("wrote %d files for 3 colliding tables: %v", len(files), files)
	}
	seen := map[string]bool{}
	contents := map[string]bool{}
	for _, f := range files {
		if seen[f] {
			t.Fatalf("duplicate path %s", f)
		}
		seen[f] = true
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		contents[strings.TrimSpace(string(buf))] = true
	}
	if len(contents) != 3 {
		t.Fatalf("tables overwrote each other; distinct contents: %d", len(contents))
	}
	empty := &Report{ID: "bad", Tables: []Table{{Name: "???", Header: []string{"a"}}}}
	if _, err := empty.WriteCSVs(t.TempDir()); err == nil {
		t.Fatal("empty sanitized name must error")
	}
}

// TestReportJSON: the machine-readable sibling of WriteCSVs carries the
// schema version and every table verbatim.
func TestReportJSON(t *testing.T) {
	rep := &Report{
		ID:    "js",
		Title: "json smoke",
		Tables: []Table{
			{Name: "t1", Header: []string{"x", "y"}, Rows: [][]string{{"1", "2"}}},
		},
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion int    `json:"schema_version"`
		ID            string `json:"id"`
		Tables        []struct {
			Name   string     `json:"name"`
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != TableSchemaVersion || doc.ID != "js" {
		t.Fatalf("bad document header: %+v", doc)
	}
	if len(doc.Tables) != 1 || doc.Tables[0].Name != "t1" || doc.Tables[0].Rows[0][1] != "2" {
		t.Fatalf("tables not preserved: %+v", doc.Tables)
	}
}
