package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// seeds lists the (workload, traced, seed) triples a result set ran, sorted.
func (f *resultFile) seeds() []string {
	var out []string
	for _, r := range f.Runs {
		out = append(out, fmt.Sprintf("%s/trace=%v/seed=%d", r.Workload, r.Trace, r.Seed))
	}
	slices.Sort(out)
	return out
}

// across summarizes one metric over a result set's runs of a workload.
// With several runs the quartiles are run-to-run; with one, they are that
// run's own pass-to-pass quartiles.
func (f *resultFile) across(workload string, trace bool, metric string) summary {
	vals := runValues(f.Runs, workload, trace, metric)
	if len(vals) != 1 {
		return summarize(vals)
	}
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r.Metrics[metric]
		}
	}
	return summary{}
}

// verdict judges head against base for one metric. delta is signed so that
// positive means worse.
func verdict(m metricDef, base, head summary, baseVals, headVals []float64) (delta float64, v string) {
	delta = (head.Value - base.Value) / base.Value
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case m.Bound == 0:
		return delta, "" // per-layer metrics carry no bound
	case base.spread() > m.Bound && !allBetter(m, baseVals, headVals):
		// The base cannot resolve a move of the bound's size, so "within
		// the bound" would be a claim the data does not support.
		return delta, "unresolved"
	case delta > m.Bound:
		return delta, "REGRESSION"
	}
	return delta, "ok"
}

// allBetter reports whether every head run beats every base run.
func allBetter(m metricDef, base, head []float64) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	if m.Better == "higher" {
		return slices.Min(head) > slices.Max(base)
	}
	return slices.Max(head) < slices.Min(base)
}

// compareFiles prints head against base, metric by metric and workload by
// workload, and fails on any regression beyond a metric's fixed bound.
func compareFiles(root, basePath, headPath string, w io.Writer) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	head, err := readResults(headPath)
	if err != nil {
		return err
	}
	if base.Machine != head.Machine {
		return fmt.Errorf("refusing to compare across machines:\n  %s: %+v\n  %s: %+v", basePath, base.Machine, headPath, head.Machine)
	}
	if !slices.Equal(base.seeds(), head.seeds()) || base.Seconds != head.Seconds {
		return fmt.Errorf("refusing to compare different runs: %s and %s do not hold the same workloads, seeds and run length", basePath, headPath)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase (q1..q3, n)\thead (q1..q3, n)\tworse by\tbound\tverdict")
	regressions := 0
	for _, trace := range []bool{false, true} {
		for _, wl := range spec.Workloads {
			for _, m := range spec.metrics(trace) {
				b, h := base.across(wl.Name, trace, m.Name), head.across(wl.Name, trace, m.Name)
				if b.N == 0 || h.N == 0 {
					continue
				}
				delta, v := verdict(m, b, h,
					runValues(base.Runs, wl.Name, trace, m.Name), runValues(head.Runs, wl.Name, trace, m.Name))
				if v == "REGRESSION" {
					regressions++
				}
				bound := ""
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%.6g..%.6g, %d)\t%.6g (%.6g..%.6g, %d)\t%+.1f%%\t%s\t%s\n",
					wl.Name, m.Name, m.Unit, b.Value, b.Q1, b.Q3, b.N, h.Value, h.Q1, h.Q3, h.N, 100*delta, bound, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range head.Runs {
		for _, br := range base.Runs {
			if r.Workload == br.Workload && r.Seed == br.Seed && !r.Trace && !br.Trace && r.Fingerprint != br.Fingerprint {
				fmt.Fprintf(w, "%s seed %d: simulated behaviour moved (fingerprint %.12s -> %.12s)\n", r.Workload, r.Seed, br.Fingerprint, r.Fingerprint)
			}
		}
	}
	if regressions > 0 {
		return errors.New("regression beyond bound")
	}
	return nil
}
