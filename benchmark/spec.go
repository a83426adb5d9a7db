package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchSpec is BENCHMARK.json: the frozen list of workloads and metric
// names every later PR is judged by. The driver reads it rather than
// repeating it, so a name can only be emitted if the contract knows it.
type benchSpec struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the metric list a run must emit: per-layer names on a
// traced run, end-to-end names otherwise.
func (s *benchSpec) metrics(trace bool) []metricDef {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// sizes scales every workload. The full sizes are the benchmark; the
// smoke sizes exist so the test suite can run every code path in seconds.
type sizes struct {
	seconds     float64       // timed budget per run
	gridSeeds   int           // sim-grid: distinct seeds the passes cycle through
	gridScale   int64         // sim-grid volume divisor
	gridOSSes   []int         // sim-grid OSS axis
	streamScale int64         // sim-stream job-count divisor of the 1,000,000-job spec
	liveDur     time.Duration // live timed cell duration
	remoteDur   time.Duration // remote timed cell duration
	warmDur     time.Duration // live warm-up cell duration
	slice       time.Duration // time given to each direct layer drive
	bulk        int           // operations in each fixed-count layer drive
}

func fullSizes(seconds float64) sizes {
	return sizes{
		seconds:     seconds,
		gridSeeds:   6,
		gridScale:   1,
		gridOSSes:   []int{1, 2, 4},
		streamScale: 4,
		liveDur:     500 * time.Millisecond,
		remoteDur:   2 * time.Second,
		warmDur:     500 * time.Millisecond,
		slice:       time.Duration(seconds * float64(time.Second) / 100),
		bulk:        1_000_000,
	}
}

func smokeSizes() sizes {
	return sizes{
		seconds:     0.05,
		gridSeeds:   1,
		gridScale:   64,
		gridOSSes:   []int{1},
		streamScale: 500,
		liveDur:     100 * time.Millisecond,
		remoteDur:   100 * time.Millisecond,
		warmDur:     20 * time.Millisecond,
		slice:       2 * time.Millisecond,
		bulk:        2000,
	}
}
