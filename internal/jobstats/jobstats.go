// Package jobstats tracks per-job I/O activity on one storage target,
// standing in for Lustre's job_stats facility that AdapTBF queries on each
// OST (§III-B of the paper).
//
// The tracker counts RPCs and bytes per job ID over an observation period.
// The System Stats Controller drains the counters at each tick — ending
// the period and starting the next in one step, so no RPC observed
// meanwhile falls between the two — feeds them to the token allocation
// algorithm, and merges them back only if the rule daemon could not apply
// the new rates: the collect/allocate/clear cycle of Figure 2.
//
// Counters live in a dense slice indexed by an interned job index, so the
// per-RPC Observe path is two integer adds; the string-keyed API interns
// on first sight and stays available for the live cluster. The simulator
// pre-interns its whole job table with SetJobs and uses ObserveIdx
// directly.
//
// Job IDs follow the paper's configuration jobid_var=nodelocal with
// jobid_name=%e.%H, i.e. "executable.hostname".
package jobstats

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// A Stat is one job's observed activity during an observation period.
type Stat struct {
	JobID string
	RPCs  int64 // number of RPCs issued to this storage target (the paper's d_x)
	Bytes int64 // payload bytes across those RPCs
}

// A Tracker accumulates per-job counters. It is safe for concurrent use:
// the real-time OSS observes requests from connection goroutines while the
// controller snapshots from its ticker goroutine.
// The zero Tracker is ready to use.
type Tracker struct {
	mu     sync.Mutex
	index  map[string]int
	stats  []Stat // dense by interned index; JobID filled at intern time
	active int    // jobs with RPCs > 0 in the current period
}

// SetJobs pre-interns the job table so that jobs[i] maps to index i for
// ObserveIdx. It must be called before any Observe, typically once at
// configuration time.
func (t *Tracker) SetJobs(jobs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.index = make(map[string]int, len(jobs))
	t.stats = make([]Stat, len(jobs))
	t.active = 0
	for i, id := range jobs {
		t.index[id] = i
		t.stats[i].JobID = id
	}
}

// Observe records one RPC of the given size for the job, interning the job
// ID on first sight.
func (t *Tracker) Observe(jobID string, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index == nil {
		t.index = make(map[string]int)
	}
	i, ok := t.index[jobID]
	if !ok {
		i = len(t.stats)
		t.index[jobID] = i
		t.stats = append(t.stats, Stat{JobID: jobID})
	}
	t.observeLocked(i, bytes)
}

// ObserveIdx records one RPC of the given size for the job at the given
// SetJobs index — the simulator's per-RPC path, free of string hashing.
func (t *Tracker) ObserveIdx(idx int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observeLocked(idx, bytes)
}

func (t *Tracker) observeLocked(idx int, bytes int64) {
	s := &t.stats[idx]
	if s.RPCs == 0 {
		t.active++
	}
	s.RPCs++
	s.Bytes += bytes
}

// Snapshot returns the jobs observed since the last Clear, sorted by job ID
// for deterministic iteration. The tracker keeps accumulating afterwards;
// call Clear to start a new observation period.
func (t *Tracker) Snapshot() []Stat {
	return t.SnapshotAppend(nil)
}

// SnapshotAppend appends the Snapshot stats to dst and returns the
// extended slice, so a periodic caller can reuse one buffer (dst[:0])
// instead of allocating a fresh slice every observation period.
func (t *Tracker) SnapshotAppend(dst []Stat) []Stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(dst)
	for _, s := range t.stats {
		if s.RPCs > 0 {
			dst = append(dst, s)
		}
	}
	slices.SortFunc(dst[base:], byJobID)
	return dst
}

// Drain appends the Snapshot stats to dst and clears the counters in
// one critical section: the returned stats are the ended period's
// complete activity and the new period starts empty, so no concurrently
// observed RPC can fall between the snapshot and the clear. Callers
// that fail to act on the drained demand should Merge it back rather
// than lose it.
func (t *Tracker) Drain(dst []Stat) []Stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(dst)
	for i := range t.stats {
		if t.stats[i].RPCs > 0 {
			dst = append(dst, t.stats[i])
			t.stats[i].RPCs = 0
			t.stats[i].Bytes = 0
		}
	}
	t.active = 0
	slices.SortFunc(dst[base:], byJobID)
	return dst
}

// byJobID orders stats by job ID (unique within a snapshot).
func byJobID(a, b Stat) int { return strings.Compare(a.JobID, b.JobID) }

// Merge folds the given stats back into the current period (interning
// unseen job IDs), the undo of a Drain whose consumer failed: the
// demand rejoins whatever accumulated since and feeds the next period.
func (t *Tracker) Merge(stats []Stat) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index == nil {
		t.index = make(map[string]int)
	}
	for _, s := range stats {
		if s.RPCs <= 0 {
			continue
		}
		i, ok := t.index[s.JobID]
		if !ok {
			i = len(t.stats)
			t.index[s.JobID] = i
			t.stats = append(t.stats, Stat{JobID: s.JobID})
		}
		if t.stats[i].RPCs == 0 {
			t.active++
		}
		t.stats[i].RPCs += s.RPCs
		t.stats[i].Bytes += s.Bytes
	}
}

// Clear resets all counters, ending the current observation period. The
// interned job table is kept.
func (t *Tracker) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.stats {
		t.stats[i].RPCs = 0
		t.stats[i].Bytes = 0
	}
	t.active = 0
}

// ActiveJobs reports how many jobs have activity in the current period.
func (t *Tracker) ActiveJobs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// JobID composes a job identifier in the paper's %e.%H convention from an
// executable name and a hostname.
func JobID(executable, hostname string) string {
	return executable + "." + hostname
}

// SplitJobID splits a %e.%H job identifier into executable and hostname.
// The hostname is everything after the first dot, since executables may
// not contain dots but hostnames may.
func SplitJobID(jobID string) (executable, hostname string, err error) {
	i := strings.IndexByte(jobID, '.')
	if i <= 0 || i == len(jobID)-1 {
		return "", "", fmt.Errorf("jobstats: %q is not an %%e.%%H job id", jobID)
	}
	return jobID[:i], jobID[i+1:], nil
}
