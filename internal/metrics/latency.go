package metrics

import (
	"sort"
	"time"

	"adaptbf/internal/stats"
)

// A LatencyRecorder accumulates per-job request latencies and answers
// percentile queries. §IV-E's starvation claim is fundamentally a latency
// claim — bursts queue behind a hog's backlog — so the experiments report
// it directly. Samples live in dense slices indexed by an interned job
// index (see JobIndex/RecordIdx), so the per-RPC path is a slice append.
// The zero LatencyRecorder is ready to use.
//
// A recorder built by NewFoldingLatencyRecorder keeps no samples: each
// latency is folded into its job's stats.Digest as it arrives, so memory
// and every later query are independent of how many RPCs were served —
// what a fixed-duration wall-clock cell needs. Its answers are the
// digest's: Count, Mean and Max exact, Percentile the digest's bucket
// estimate. The exact form stays for the simulator, whose samples
// internal/experiments reads.
type LatencyRecorder struct {
	index  map[string]int
	names  []string
	byJob  [][]time.Duration
	sorted []bool

	folding bool
	digests []stats.Digest // per job, folding form only
}

// NewFoldingLatencyRecorder returns a recorder that folds latencies into
// one digest per job instead of keeping them.
func NewFoldingLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{folding: true}
}

// JobIndex interns a job name, returning its dense index for RecordIdx.
func (l *LatencyRecorder) JobIndex(job string) int {
	if l.index == nil {
		l.index = make(map[string]int)
	}
	idx, ok := l.index[job]
	if !ok {
		idx = len(l.names)
		l.index[job] = idx
		l.names = append(l.names, job)
		l.byJob = append(l.byJob, nil) // stays empty when folding
		l.sorted = append(l.sorted, false)
		if l.folding {
			l.digests = append(l.digests, stats.Digest{})
		}
	}
	return idx
}

// Reserve pre-allocates capacity for n samples for the job interned at
// idx, so a caller that knows its total request count up front (the
// simulator: bounded workloads declare their RPC totals) pays one
// allocation instead of a doubling series. A folding recorder has
// nothing to reserve.
func (l *LatencyRecorder) Reserve(idx, n int) {
	if !l.folding && n > cap(l.byJob[idx]) {
		s := make([]time.Duration, len(l.byJob[idx]), n)
		copy(s, l.byJob[idx])
		l.byJob[idx] = s
	}
}

// Record adds one request latency for the job.
func (l *LatencyRecorder) Record(job string, d time.Duration) {
	l.RecordIdx(l.JobIndex(job), d)
}

// RecordIdx adds one request latency for the job interned at idx — the
// per-RPC path, an amortized slice append (a digest fold when folding).
func (l *LatencyRecorder) RecordIdx(idx int, d time.Duration) {
	if l.folding {
		l.digests[idx].Add(d)
		return
	}
	l.byJob[idx] = append(l.byJob[idx], d)
	l.sorted[idx] = false
}

// Jobs returns the recorded job names, sorted. Jobs interned but never
// recorded do not appear.
func (l *LatencyRecorder) Jobs() []string {
	out := make([]string, 0, len(l.names))
	for _, name := range l.names {
		if l.Count(name) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// digestOf returns the job's digest in the folding form, nil otherwise
// or when the job was never interned.
func (l *LatencyRecorder) digestOf(job string) *stats.Digest {
	if idx, ok := l.index[job]; ok && l.folding {
		return &l.digests[idx]
	}
	return nil
}

func (l *LatencyRecorder) samplesOf(job string) []time.Duration {
	if idx, ok := l.index[job]; ok {
		return l.byJob[idx]
	}
	return nil
}

// Count reports the number of samples for the job.
func (l *LatencyRecorder) Count(job string) int {
	if d := l.digestOf(job); d != nil {
		return int(d.N())
	}
	return len(l.samplesOf(job))
}

func (l *LatencyRecorder) ensureSorted(job string) []time.Duration {
	idx, ok := l.index[job]
	if !ok {
		return nil
	}
	s := l.byJob[idx]
	if len(s) > 0 && !l.sorted[idx] {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		l.sorted[idx] = true
	}
	return s
}

// Percentile reports the p-th percentile latency (p in [0,100]) for the
// job using the nearest-rank convention, or 0 with no samples.
//
// Nearest-rank here means the returned value is always one of the
// recorded samples: the element at zero-based rank ⌊p/100·n⌋ of the
// sorted sample slice (clamped to the last element). p=50 over four
// samples returns the third-smallest, not an interpolated midpoint; p=0
// is the minimum and p=100 the maximum. stats.Digest.Quantile follows
// the same convention, which is what lets its bucketized estimates be
// tested to land in the exact percentile's bucket — and is what a
// folding recorder answers with.
func (l *LatencyRecorder) Percentile(job string, p float64) time.Duration {
	if d := l.digestOf(job); d != nil {
		return d.Quantile(p)
	}
	s := l.ensureSorted(job)
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(p / 100 * float64(len(s)))
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Mean reports the mean latency for the job, or 0 with no samples.
func (l *LatencyRecorder) Mean(job string) time.Duration {
	if d := l.digestOf(job); d != nil {
		return d.Mean()
	}
	s := l.samplesOf(job)
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// Max reports the maximum latency for the job.
func (l *LatencyRecorder) Max(job string) time.Duration {
	if d := l.digestOf(job); d != nil {
		return d.Max()
	}
	s := l.ensureSorted(job)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// FeedDigest folds every recorded sample — all jobs — into d. This is
// the bridge between the raw per-RPC recorder and the mergeable
// fixed-size digests the matrix analytics keep per cell: the harness
// calls it once per finished cell, after which the raw samples can be
// dropped while quantile queries survive the merge. A folding recorder
// has the digests already and merges them.
func (l *LatencyRecorder) FeedDigest(d *stats.Digest) {
	for i := range l.digests {
		d.Merge(&l.digests[i])
	}
	for _, samples := range l.byJob {
		for _, v := range samples {
			d.Add(v)
		}
	}
}

// FeedDigestJob folds only the named job's samples into d.
func (l *LatencyRecorder) FeedDigestJob(d *stats.Digest, job string) {
	d.Merge(l.digestOf(job))
	for _, v := range l.samplesOf(job) {
		d.Add(v)
	}
}
