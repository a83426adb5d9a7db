// Command benchmark is the repository's performance benchmark: five named
// workloads driven through the program's public seams, each in a child
// process of its own, reporting the metrics BENCHMARK.json names. See
// README.md for what each workload and metric is for.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"
)

// childEnv marks a process as a workload child. The driver re-executes its
// own binary with it set; the test binary's TestMain honours it too, so
// the tests exercise the same parent/child path.
const childEnv = "ADAPTBF_BENCH_CHILD"

// childTimeout keeps a wedged child from outliving the 180 s a run may take.
const childTimeout = 170 * time.Second

// setupSamples is how many cold processes set-up is timed in per run.
const setupSamples = 5

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	runs      int
	out       string
	root      string
	nodeBin   string
	smoke     bool
	spans     string
	started   int64 // child: driver's launch time, Unix nanoseconds
	setupOnly bool  // child: stop after set-up
}

func parseFlags(args []string) (config, []string, error) {
	var c config
	var trace int
	compare := false
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; matrix seeds are seed..seed+k-1")
	fs.Float64Var(&c.seconds, "seconds", 0, "timed seconds per run (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&trace, "trace", 0, "1 = the traced per-layer run, 0 = the untraced end-to-end run")
	fs.IntVar(&c.runs, "runs", 1, "repeat each workload this many times on seeds seed..seed+runs-1")
	fs.StringVar(&c.out, "out", "", "write the full result set to this file")
	fs.StringVar(&c.root, "root", ".", "checkout root (where BENCHMARK.json lives)")
	fs.StringVar(&c.nodeBin, "node-bin", "", "prebuilt adaptbf-node binary (remote-cell)")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny sizes: exercises every path, measures nothing")
	fs.StringVar(&c.spans, "spans", "", "traced run: write the spans here (default <root>/.bench_build/spans.json)")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare base.json head.json")
	fs.Int64Var(&c.started, "started", 0, "internal: child launch time")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "internal: child stops after set-up")
	if err := fs.Parse(args); err != nil {
		return c, nil, err
	}
	c.trace = trace != 0
	if c.spans == "" {
		c.spans = filepath.Join(c.root, ".bench_build", "spans.json")
	}
	if compare {
		if fs.NArg() != 2 {
			return c, nil, errors.New("-compare takes two result files")
		}
		return c, fs.Args(), nil
	}
	if fs.NArg() != 0 {
		return c, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return c, nil, nil
}

func (c config) sizes() sizes {
	if c.smoke {
		return smokeSizes()
	}
	return fullSizes(c.seconds)
}

func (c config) env(seed int64) env {
	return env{root: c.root, nodeBin: c.nodeBin, seed: seed, sz: c.sizes()}
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(driverMain(os.Args[1:], os.Stdout))
}

// childMain runs one workload in this process and prints its childReport.
func childMain(args []string, stdout io.Writer) int {
	c, _, err := parseFlags(args)
	if err != nil {
		return 2
	}
	var rep *childReport
	if c.trace {
		rep, err = runTraced(c.env(c.seed), c.spans)
	} else {
		rep, err = runWorkload(c.workload, c.env(c.seed), time.Unix(0, c.started), c.setupOnly)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func driverMain(args []string, stdout io.Writer) int {
	c, files, err := parseFlags(args)
	if err == nil {
		if files != nil {
			err = compareFiles(c.root, files[0], files[1], stdout)
		} else {
			err = drive(c, stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// A runResult is one run of one workload: the unit the acceptance driver
// consumes (as the last stdout line) and the result files accumulate.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Events      uint64             `json:"events,omitempty"`
	Metrics     map[string]summary `json:"metrics"`
	SpanFile    string             `json:"span_file,omitempty"`
}

// A resultFile is a full result set with the machine it was measured on.
type resultFile struct {
	Machine machineStamp `json:"machine"`
	Seconds float64      `json:"seconds"`
	Runs    []runResult  `json:"runs"`
}

// drive runs the requested workloads and prints every metric by name.
func drive(c config, stdout io.Writer) error {
	spec, err := loadSpec(c.root)
	if err != nil {
		return err
	}
	if c.seconds <= 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	names := []string{c.workload}
	if c.workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
		if c.trace {
			names = names[:1] // the traced ledger covers every workload whichever one names it
		}
	} else if !spec.hasWorkload(c.workload) {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	out := resultFile{Machine: stampMachine(), Seconds: c.seconds}
	ok := true
	for _, name := range names {
		for i := 0; i < c.runs; i++ {
			run, err := runOnce(c, spec, name, c.seed+int64(i))
			if err != nil {
				return err
			}
			printRun(stdout, spec, run)
			out.Runs = append(out.Runs, *run)
			ok = ok && run.Correct
		}
	}
	if c.runs > 1 {
		printSpreads(stdout, spec, out.Runs)
	}
	if c.out != "" {
		data, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return errors.New("correctness checks failed")
	}
	return nil
}

// runOnce measures one workload at one seed. Untraced, set-up is timed in
// setupSamples cold processes, the last of which goes on to the timed
// passes; traced, a single child produces the whole per-layer ledger.
func runOnce(c config, spec *benchSpec, name string, seed int64) (*runResult, error) {
	run := &runResult{Workload: name, Seed: seed, Trace: c.trace, Metrics: map[string]summary{}}
	var full *childReport
	var setups []float64
	var peakKB int64
	children := setupSamples
	if c.trace {
		children = 1
	}
	for i := 1; i <= children; i++ {
		rep, rss, err := spawnChild(c, name, seed, !c.trace && i < children)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.SetupS)
		full, peakKB = rep, max(rss, rep.KidsMaxRSSKB)
		run.Errors = append(run.Errors, rep.Errors...)
	}
	if !c.trace {
		extra := median(full.SpawnReadyS)
		for _, s := range setups {
			full.add("setup_s", s+extra)
		}
		full.add("peak_rss_mb", float64(peakKB)/1024)
	}
	for _, m := range spec.metrics(c.trace) {
		s := full.Samples[m.Name]
		if len(s) == 0 {
			run.Errors = append(run.Errors, fmt.Sprintf("%s: metric %s was not measured", name, m.Name))
			continue
		}
		sum := summarize(s)
		if math.IsNaN(sum.Value) || math.IsInf(sum.Value, 0) {
			run.Errors = append(run.Errors, fmt.Sprintf("%s: metric %s is not finite", name, m.Name))
			continue
		}
		run.Metrics[m.Name] = sum
	}
	run.Attempted, run.Failed = full.Attempted, full.Failed
	run.Fingerprint, run.Events = full.behaviour()
	run.SpanFile = full.SpanFile
	run.Correct = len(run.Errors) == 0 && run.Failed == 0 && run.Attempted > 0
	return run, nil
}

// spawnChild re-executes this binary as one workload child and returns its
// report and its peak resident set in KiB.
func spawnChild(c config, name string, seed int64, setupOnly bool) (*childReport, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if c.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", trace,
		"-root", c.root,
		"-node-bin", c.nodeBin,
		"-spans", c.spans,
		"-smoke="+strconv.FormatBool(c.smoke),
		"-setup-only="+strconv.FormatBool(setupOnly),
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10),
	)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", name, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("%s child report: %w", name, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, 0, fmt.Errorf("%s child: no resource usage", name)
	}
	return &rep, ru.Maxrss, nil
}

// printRun prints one run's metrics as a table and then, as its last line,
// the JSON object the acceptance driver reads.
func printRun(w io.Writer, spec *benchSpec, run *runResult) {
	kind := "end-to-end"
	if run.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed %d: %s\n", run.Workload, run.Seed, kind)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tmedian\tq1\tq3\tn")
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{run.Correct, run.Attempted, run.Failed, map[string]map[string]any{}}
	for _, m := range spec.metrics(run.Trace) {
		s, ok := run.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", m.Name, m.Unit, m.Better, s.Value, s.Q1, s.Q3, s.N)
		line.Metrics[m.Name] = map[string]any{"value": s.Value, "unit": m.Unit}
	}
	tw.Flush()
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", run.Attempted, run.Failed)
	if run.Fingerprint != "" {
		fmt.Fprintf(w, "sim fingerprint %s over %d events\n", run.Fingerprint, run.Events)
	}
	if run.SpanFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", run.SpanFile)
	}
	for _, e := range run.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
	data, _ := json.Marshal(line) // plain maps of numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// printSpreads shows, per workload and metric, the run-to-run spread the
// acceptance driver will compute and how it sits against the bound.
func printSpreads(w io.Writer, spec *benchSpec, runs []runResult) {
	fmt.Fprintln(w, "== run-to-run spread (IQR / median over runs)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\truns\tspread\tbound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			s := summarize(runValues(runs, wl.Name, false, m.Name))
			if s.N == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.2f%%\t%.0f%%\n",
				wl.Name, m.Name, s.Value, s.Q1, s.Q3, s.N, 100*s.spread(), 100*m.Bound)
		}
	}
	tw.Flush()
}

// runValues collects one metric's per-run values for a workload.
func runValues(runs []runResult, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, s.Value)
		}
	}
	return out
}
