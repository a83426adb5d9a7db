// Package config defines the JSON scenario schema used by the command
// line tools, translating human-friendly units (MiB, seconds) into
// simulator configuration.
package config

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"adaptbf/internal/policy"
	"adaptbf/internal/sim"
	"adaptbf/internal/workload"
)

// A ProcSpec describes one or more identical processes of a job.
type ProcSpec struct {
	// Count replicates this process spec; defaults to 1.
	Count            int     `json:"count"`
	StartDelaySec    float64 `json:"startDelaySec"`
	FileMiB          int64   `json:"fileMiB"`
	RPCKiB           int64   `json:"rpcKiB"`
	MaxInflight      int     `json:"maxInflight"`
	BurstRPCs        int     `json:"burstRPCs"`
	BurstIntervalSec float64 `json:"burstIntervalSec"`
}

// A JobSpec describes one job.
type JobSpec struct {
	ID    string     `json:"id"`
	Nodes int        `json:"nodes"`
	Procs []ProcSpec `json:"procs"`
}

// A Scenario is the JSON form of a simulation configuration.
type Scenario struct {
	Policy       string    `json:"policy"`
	MaxTokenRate float64   `json:"maxTokenRate"`
	PeriodMs     int       `json:"periodMs"`
	OSTs         int       `json:"osts"`
	DurationSec  float64   `json:"durationSec"`
	SFQDepth     int       `json:"sfqDepth"`
	Jobs         []JobSpec `json:"jobs"`
}

// ParsePolicy maps a policy name (any flag or alias in package policy's
// table) to a simulator policy. The empty string means AdapTBF.
func ParsePolicy(s string) (sim.Policy, error) {
	if strings.TrimSpace(s) == "" {
		return sim.AdapTBF, nil
	}
	return policy.Parse(s)
}

// Parse decodes a JSON scenario into a simulator configuration. Unknown
// fields are rejected so typos in knob names fail loudly.
func Parse(data []byte) (sim.Config, error) {
	var s Scenario
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return sim.Config{}, fmt.Errorf("config: %w", err)
	}
	return s.Config()
}

// Config converts the scenario to a simulator configuration.
func (s *Scenario) Config() (sim.Config, error) {
	var out sim.Config
	pol, err := ParsePolicy(s.Policy)
	if err != nil {
		return out, err
	}
	out.Policy = pol
	out.MaxTokenRate = s.MaxTokenRate
	out.Period = time.Duration(s.PeriodMs) * time.Millisecond
	out.OSTs = s.OSTs
	out.Duration = time.Duration(s.DurationSec * float64(time.Second))
	out.SFQDepth = s.SFQDepth
	out.SampleRecords = pol == sim.AdapTBF
	if len(s.Jobs) == 0 {
		return out, fmt.Errorf("config: scenario has no jobs")
	}
	for _, j := range s.Jobs {
		job := workload.Job{ID: j.ID, Nodes: j.Nodes}
		if len(j.Procs) == 0 {
			return out, fmt.Errorf("config: job %q has no procs", j.ID)
		}
		for _, p := range j.Procs {
			count := p.Count
			if count == 0 {
				count = 1
			}
			if count < 0 {
				return out, fmt.Errorf("config: job %q: negative proc count", j.ID)
			}
			pat := workload.Pattern{
				StartDelay:    time.Duration(p.StartDelaySec * float64(time.Second)),
				FileBytes:     p.FileMiB << 20,
				RPCBytes:      p.RPCKiB << 10,
				MaxInflight:   p.MaxInflight,
				BurstRPCs:     p.BurstRPCs,
				BurstInterval: time.Duration(p.BurstIntervalSec * float64(time.Second)),
			}
			job.Procs = append(job.Procs, workload.Replicate(pat, count)...)
		}
		if err := job.Validate(); err != nil {
			return out, fmt.Errorf("config: %w", err)
		}
		out.Jobs = append(out.Jobs, job)
	}
	return out, nil
}

// Demo returns the built-in two-job demonstration scenario.
func Demo(pol sim.Policy) sim.Config {
	const mib = 1 << 20
	return sim.Config{
		Policy: pol,
		Jobs: []workload.Job{
			workload.Continuous("small.n01", 1, 8, 256*mib),
			workload.Continuous("large.n02", 3, 8, 256*mib),
		},
		SampleRecords: pol == sim.AdapTBF,
	}
}
