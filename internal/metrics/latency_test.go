package metrics

import (
	"testing"
	"testing/quick"
	"time"

	"adaptbf/internal/stats"
)

func TestLatencyPercentiles(t *testing.T) {
	var l LatencyRecorder
	for i := 1; i <= 100; i++ {
		l.Record("j", time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{50, 51 * time.Millisecond},
		{99, 100 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := l.Percentile("j", c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if got := l.Mean("j"); got != 50500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms", got)
	}
	if got := l.Max("j"); got != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", got)
	}
	if got := l.Count("j"); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
}

func TestLatencyEmptyJob(t *testing.T) {
	var l LatencyRecorder
	if l.Percentile("missing", 50) != 0 || l.Mean("missing") != 0 || l.Max("missing") != 0 {
		t.Fatal("empty job not zero")
	}
	if len(l.Jobs()) != 0 {
		t.Fatal("jobs not empty")
	}
}

func TestLatencyRecordAfterQuery(t *testing.T) {
	var l LatencyRecorder
	l.Record("j", 5*time.Millisecond)
	_ = l.Percentile("j", 50) // sorts
	l.Record("j", 1*time.Millisecond)
	if got := l.Percentile("j", 0); got != time.Millisecond {
		t.Fatalf("min after re-record = %v, want 1ms", got)
	}
}

func TestLatencyJobsSorted(t *testing.T) {
	var l LatencyRecorder
	l.Record("z", 1)
	l.Record("a", 1)
	jobs := l.Jobs()
	if len(jobs) != 2 || jobs[0] != "a" {
		t.Fatalf("jobs = %v", jobs)
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestLatencyMonotoneQuick(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var l LatencyRecorder
		for _, v := range vals {
			l.Record("j", time.Duration(v)*time.Microsecond)
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 5 {
			got := l.Percentile("j", p)
			if got < prev {
				return false
			}
			prev = got
		}
		return l.Percentile("j", 0) <= l.Mean("j") && l.Mean("j") <= l.Max("j")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyIdxPathAndReserve(t *testing.T) {
	var a, b LatencyRecorder
	idx := b.JobIndex("j")
	b.Reserve(idx, 128)
	for i := 1; i <= 100; i++ {
		d := time.Duration(i*37%50) * time.Millisecond
		a.Record("j", d)
		b.RecordIdx(idx, d)
	}
	if a.Count("j") != b.Count("j") {
		t.Fatal("counts diverge")
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if a.Percentile("j", p) != b.Percentile("j", p) {
			t.Fatalf("p%v diverges", p)
		}
	}
	if a.Mean("j") != b.Mean("j") || a.Max("j") != b.Max("j") {
		t.Fatal("mean/max diverge")
	}
	// An interned-but-empty job stays hidden.
	b.JobIndex("ghost")
	if got := b.Jobs(); len(got) != 1 || got[0] != "j" {
		t.Fatalf("Jobs = %v", got)
	}
}

// TestFeedDigest: the digest bridge must carry every sample of every job
// (and only the named job's for the per-job variant), preserving count,
// extremes, and quantile-bucket agreement.
func TestFeedDigest(t *testing.T) {
	var l LatencyRecorder
	for i := 1; i <= 50; i++ {
		l.Record("a", time.Duration(i)*time.Millisecond)
		l.Record("b", time.Duration(i)*time.Microsecond)
	}
	d := stats.NewDigest()
	l.FeedDigest(d)
	if d.N() != 100 {
		t.Fatalf("digest carries %d samples, want 100", d.N())
	}
	if d.Min() != time.Microsecond || d.Max() != 50*time.Millisecond {
		t.Fatalf("digest extremes %v/%v", d.Min(), d.Max())
	}
	dj := stats.NewDigest()
	l.FeedDigestJob(dj, "b")
	if dj.N() != 50 || dj.Max() != 50*time.Microsecond {
		t.Fatalf("per-job digest wrong: n=%d max=%v", dj.N(), dj.Max())
	}
	if est, exact := dj.Quantile(50), l.Percentile("b", 50); est < exact {
		t.Fatalf("digest p50 %v undershoots exact %v", est, exact)
	}
	ghost := stats.NewDigest()
	l.FeedDigestJob(ghost, "missing")
	if ghost.N() != 0 {
		t.Fatal("unknown job fed samples")
	}
}

// TestFoldingRecorder: the folding form keeps one digest per job and
// nothing else, and answers every query the exact form answers — count,
// mean and max exactly, percentiles as the digest of the same samples
// would, FeedDigest/FeedDigestJob as merges that equal the exact form's
// sample walk.
func TestFoldingRecorder(t *testing.T) {
	var exact LatencyRecorder
	folding := NewFoldingLatencyRecorder()
	ia, ib := folding.JobIndex("a"), folding.JobIndex("b")
	folding.JobIndex("ghost")
	folding.Reserve(ia, 1<<20) // nothing to reserve; must not panic or allocate samples
	for i := 1; i <= 5000; i++ {
		da := time.Duration(i*7919%4000+50) * time.Microsecond
		db := time.Duration(i) * time.Millisecond
		exact.Record("a", da)
		exact.Record("b", db)
		folding.RecordIdx(ia, da)
		folding.RecordIdx(ib, db)
	}
	if got := folding.Jobs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Jobs = %v, want [a b]", got)
	}
	for _, samples := range folding.byJob {
		if cap(samples) != 0 {
			t.Fatal("a folding recorder kept samples")
		}
	}
	for _, job := range []string{"a", "b", "ghost", "missing"} {
		if folding.Count(job) != exact.Count(job) || folding.Mean(job) != exact.Mean(job) || folding.Max(job) != exact.Max(job) {
			t.Errorf("job %s: count/mean/max %d/%v/%v, exact form %d/%v/%v", job,
				folding.Count(job), folding.Mean(job), folding.Max(job), exact.Count(job), exact.Mean(job), exact.Max(job))
		}
		want, got := stats.NewDigest(), stats.NewDigest()
		exact.FeedDigestJob(want, job)
		folding.FeedDigestJob(got, job)
		if *want != *got {
			t.Errorf("job %s: FeedDigestJob differs between the forms", job)
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if folding.Percentile(job, p) != want.Quantile(p) {
				t.Errorf("job %s: p%v = %v, the digest of the same samples says %v", job, p, folding.Percentile(job, p), want.Quantile(p))
			}
		}
	}
	want, got := stats.NewDigest(), stats.NewDigest()
	exact.FeedDigest(want)
	folding.FeedDigest(got)
	if *want != *got || got.N() != 10000 {
		t.Fatalf("FeedDigest differs between the forms (n=%d, want 10000)", got.N())
	}
}
