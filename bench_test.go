// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV). One benchmark per figure/table, plus the §IV-G
// overhead micro-benchmarks and the ablation benches DESIGN.md §5 calls
// out.
//
// Figure benches run the full three-policy simulation at 1/16 of the
// paper's data volumes per iteration (the dynamics are preserved; see
// internal/experiments) and report the headline numbers as custom
// metrics, so `go test -bench=.` prints the same comparisons the paper
// plots. Run `go run ./cmd/adaptbf-bench` for the paper-scale tables.
package adaptbf_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"adaptbf"
	"adaptbf/internal/core"
	"adaptbf/internal/experiments"
	"adaptbf/internal/gift"
	"adaptbf/internal/harness"
	"adaptbf/internal/metrics"
	"adaptbf/internal/sim"
	"adaptbf/internal/tbf"
)

// benchParams shrinks the paper's volumes 16× per iteration.
func benchParams() adaptbf.ExperimentParams {
	p := adaptbf.PaperParams()
	p.Scale = 16
	return p
}

func reportPolicies(b *testing.B, rep *adaptbf.ExperimentReport) {
	b.Helper()
	for pol, tl := range rep.Timelines {
		sum := tl.Summarize()
		name := strings.ReplaceAll(pol.String(), " ", "")
		b.ReportMetric(sum.OverallMiBps, name+"_MiB/s")
	}
}

// BenchmarkFig3TokenAllocation regenerates the §IV-D timelines (Figure 3):
// four continuous jobs, priorities 10/10/30/50%, under all three policies.
func BenchmarkFig3TokenAllocation(b *testing.B) {
	var rep *adaptbf.ExperimentReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = adaptbf.RunAllocationExperiment(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPolicies(b, rep)
}

// BenchmarkFig4AllocationSummary regenerates Figure 4: the per-job /
// overall bandwidth bars and AdapTBF's gain/loss vs the baselines.
func BenchmarkFig4AllocationSummary(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rep, err := adaptbf.RunAllocationExperiment(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		gl := metrics.GainLoss(
			rep.Timelines[sim.AdapTBF].Summarize(),
			rep.Timelines[sim.NoBW].Summarize(),
		)
		gain = gl["job4.n04"]
	}
	b.ReportMetric(gain, "job4_gain_%")
}

// BenchmarkFig5Redistribution regenerates the §IV-E timelines (Figure 5):
// bursty high-priority jobs against a continuous low-priority hog.
func BenchmarkFig5Redistribution(b *testing.B) {
	var rep *adaptbf.ExperimentReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = adaptbf.RunRedistributionExperiment(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPolicies(b, rep)
}

// BenchmarkFig6RedistributionSummary regenerates Figure 6: burst
// protection gains for the high-priority jobs.
func BenchmarkFig6RedistributionSummary(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rep, err := adaptbf.RunRedistributionExperiment(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		gl := metrics.GainLoss(
			rep.Timelines[sim.AdapTBF].Summarize(),
			rep.Timelines[sim.NoBW].Summarize(),
		)
		gain = gl["job1.n01"]
	}
	b.ReportMetric(gain, "job1_gain_%")
}

// BenchmarkFig7Recompensation regenerates the §IV-F record/demand
// timelines (Figure 7), reporting job3's peak lending record.
func BenchmarkFig7Recompensation(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		rep, err := adaptbf.RunRecompensationExperiment(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, pt := range rep.Series.Get("record:job3.n03") {
			if pt.V > peak {
				peak = pt.V
			}
		}
	}
	b.ReportMetric(peak, "job3_peak_lent_tokens")
}

// BenchmarkFig8RecompensationSummary regenerates Figure 8: aggregate
// bandwidth comparison for the re-compensation workload.
func BenchmarkFig8RecompensationSummary(b *testing.B) {
	var rep *adaptbf.ExperimentReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = adaptbf.RunRecompensationExperiment(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPolicies(b, rep)
}

// BenchmarkFig9AllocationFrequency regenerates Figure 9: aggregate
// throughput across the Δt sweep, reporting the two endpoints.
func BenchmarkFig9AllocationFrequency(b *testing.B) {
	freqs := []time.Duration{100 * time.Millisecond, 2 * time.Second}
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		p := benchParams()
		for j, f := range freqs {
			pp := p
			pp.Period = f
			res, err := sim.Run(sim.Config{
				Policy:       sim.AdapTBF,
				Jobs:         experiments.JobsRecompensation(pp),
				MaxTokenRate: pp.MaxTokenRate,
				Period:       f,
				Duration:     pp.Duration,
			})
			if err != nil {
				b.Fatal(err)
			}
			v := res.Timeline.Summarize().OverallMiBps
			if j == 0 {
				fast = v
			} else {
				slow = v
			}
		}
	}
	b.ReportMetric(fast, "dt100ms_MiB/s")
	b.ReportMetric(slow, "dt2s_MiB/s")
}

// --- §IV-G overhead: the paper reports <30 µs of allocation time per job
// and O(n) scaling in active jobs. ---

func benchAllocator(b *testing.B, jobs int) {
	a := core.New(core.Config{MaxRate: 500 * float64(1+jobs/4), Period: 100 * time.Millisecond})
	acts := make([]core.Activity, jobs)
	for i := range acts {
		acts[i] = core.Activity{
			Job:    core.JobID(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))),
			Nodes:  1 + i%32,
			Demand: int64(1 + (i*37)%900),
		}
	}
	a.Allocate(acts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acts {
			acts[j].Demand = int64(1 + (i+j*53)%900)
		}
		a.Allocate(acts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(jobs), "ns/job")
}

func BenchmarkAllocatorPerJob1(b *testing.B)    { benchAllocator(b, 1) }
func BenchmarkAllocatorPerJob10(b *testing.B)   { benchAllocator(b, 10) }
func BenchmarkAllocatorPerJob100(b *testing.B)  { benchAllocator(b, 100) }
func BenchmarkAllocatorPerJob1000(b *testing.B) { benchAllocator(b, 1000) }

// BenchmarkControllerCycle measures the whole collect→allocate→apply→clear
// cycle against a live TBF scheduler in steady state, every job's rate
// changing every period and every rule's queue holding requests (the
// paper's "overall framework overhead", ~25 ms there including lctl exec
// costs; in-process it is microseconds, which is the gap the paper
// attributes to external interactions). §IV-G expects the cycle to stay
// linear up to 1000 active jobs; the loop must not allocate.
func BenchmarkControllerCycle(b *testing.B) {
	for _, jobs := range []int{100, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			c, err := experiments.NewControlCycle(jobs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(jobs), "ns/job")
		})
	}
}

// BenchmarkGIFTAllocate100 measures one storage target's walk of the
// centralized GIFT controller over 100 active applications.
func BenchmarkGIFTAllocate100(b *testing.B) {
	const jobs = 100
	bank := gift.New(100 * time.Millisecond)
	active := make([]gift.Activity, jobs)
	for i := range active {
		active[i].Job = fmt.Sprintf("job%04d.n%03d", i, i%64)
	}
	bank.Allocate(active, 500*jobs/4) // interns the applications, sizes the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range active {
			active[j].Demand = int64(1 + (i+j*53)%900)
		}
		bank.Allocate(active, 500*jobs/4)
	}
}

// --- TBF scheduler micro-benchmarks (the substrate's hot path). ---

func BenchmarkTBFEnqueueDequeue(b *testing.B) {
	s := tbf.NewScheduler(tbf.Config{})
	for j := 0; j < 16; j++ {
		id := "job" + string(rune('a'+j)) + ".n"
		s.StartRule(tbf.Rule{Name: id, Match: tbf.Match{JobIDs: []string{id}}, Rate: 1e9, Order: j}, 0)
	}
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 1000
		id := "job" + string(rune('a'+i%16)) + ".n"
		s.Enqueue(&tbf.Request{JobID: id, Bytes: 1 << 20}, now)
		if r, _, ok := s.Dequeue(now); !ok || r == nil {
			b.Fatal("dequeue failed")
		}
	}
}

func BenchmarkTBFFallbackPath(b *testing.B) {
	s := tbf.NewScheduler(tbf.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enqueue(&tbf.Request{JobID: "unmatched.n", Bytes: 1 << 20}, int64(i))
		if _, _, ok := s.Dequeue(int64(i)); !ok {
			b.Fatal("fallback dequeue failed")
		}
	}
}

// --- Ablations (DESIGN.md §5): what each algorithm step buys. ---

func benchAblation(b *testing.B, opts ...core.Option) {
	var overall, highPrioGain float64
	for i := 0; i < b.N; i++ {
		p := benchParams()
		jobs := experiments.JobsRedistribution(p)
		res, err := sim.Run(sim.Config{
			Policy:    sim.AdapTBF,
			Jobs:      jobs,
			Duration:  p.Duration,
			AllocOpts: opts,
		})
		if err != nil {
			b.Fatal(err)
		}
		base, err := sim.Run(sim.Config{Policy: sim.NoBW, Jobs: jobs, Duration: p.Duration})
		if err != nil {
			b.Fatal(err)
		}
		sum, bsum := res.Timeline.Summarize(), base.Timeline.Summarize()
		overall = sum.OverallMiBps
		highPrioGain = metrics.GainLoss(sum, bsum)["job1.n01"]
	}
	b.ReportMetric(overall, "overall_MiB/s")
	b.ReportMetric(highPrioGain, "job1_gain_%")
}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b) }

func BenchmarkAblationNoRedistribution(b *testing.B) {
	benchAblation(b, core.WithoutRedistribution())
}

func BenchmarkAblationNoRecompensation(b *testing.B) {
	benchAblation(b, core.WithoutRecompensation())
}

func BenchmarkAblationNoRemainders(b *testing.B) {
	benchAblation(b, core.WithoutRemainders())
}

// BenchmarkAblationBucketDepth sweeps the TBF bucket depth (Lustre's
// default is 3) on the redistribution workload.
func BenchmarkAblationBucketDepth(b *testing.B) {
	depths := []float64{1, 3, 16, 64}
	results := make([]float64, len(depths))
	for i := 0; i < b.N; i++ {
		p := benchParams()
		for d, depth := range depths {
			res, err := sim.Run(sim.Config{
				Policy:      sim.AdapTBF,
				Jobs:        experiments.JobsRedistribution(p),
				Duration:    p.Duration,
				BucketDepth: depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[d] = res.Timeline.Summarize().OverallMiBps
		}
	}
	b.ReportMetric(results[0], "depth1_MiB/s")
	b.ReportMetric(results[1], "depth3_MiB/s")
	b.ReportMetric(results[3], "depth64_MiB/s")
}

// --- Scenario-matrix engine: the same 24-cell grid the acceptance
// criteria name (3 scenarios × 4 policies × 2 OSS counts), sequential vs
// worker-pool. The parallel/sequential wall-clock ratio is the speedup
// the engine buys the figure suite. ---

func benchMatrix() harness.Matrix {
	return harness.Matrix{
		Scenarios: harness.DefaultScenarios(),
		Policies:  []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ},
		Scales:    []int64{64},
		OSSes:     []int{1, 2},
	}
}

func benchMatrixRun(b *testing.B, workers int) {
	var cells int
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(context.Background(), benchMatrix(), harness.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		cells = len(res.Cells)
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkMatrixSequential(b *testing.B) { benchMatrixRun(b, 1) }

func BenchmarkMatrixParallel(b *testing.B) { benchMatrixRun(b, runtime.NumCPU()) }

// BenchmarkMatrixMultiOSS scales the OSS axis alone: one scenario, one
// policy, stacks of 1/2/4/8 striped OSSes per cell.
func BenchmarkMatrixMultiOSS(b *testing.B) {
	m := harness.Matrix{
		Scenarios: []harness.Scenario{harness.StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.AdapTBF},
		Scales:    []int64{64},
		OSSes:     []int{1, 2, 4, 8},
	}
	var bw1, bw8 float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(context.Background(), m)
		if err != nil {
			b.Fatal(err)
		}
		bw1 = res.Cells[0].Result.Timeline.Summarize().OverallMiBps
		bw8 = res.Cells[3].Result.Timeline.Summarize().OverallMiBps
	}
	b.ReportMetric(bw1, "oss1_MiB/s")
	b.ReportMetric(bw8, "oss8_MiB/s")
}

// BenchmarkExtGIFTComparison regenerates the GIFT extension table: the
// §IV-D workload under the centralized coupon-based baseline, reporting
// the priority signal each mechanism delivers (job4/job1 bandwidth ratio;
// GIFT ≈ 1, AdapTBF ≈ 2).
func BenchmarkExtGIFTComparison(b *testing.B) {
	var giftRatio, adapRatio float64
	for i := 0; i < b.N; i++ {
		rep, err := adaptbf.RunGIFTComparison(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		g := rep.Timelines[sim.GIFT].Summarize()
		a := rep.Timelines[sim.AdapTBF].Summarize()
		giftRatio = g.PerJob["job4.n04"].AvgMiBps / g.PerJob["job1.n01"].AvgMiBps
		adapRatio = a.PerJob["job4.n04"].AvgMiBps / a.PerJob["job1.n01"].AvgMiBps
	}
	b.ReportMetric(giftRatio, "gift_j4/j1")
	b.ReportMetric(adapRatio, "adaptbf_j4/j1")
}

// BenchmarkExtSFQComparison regenerates the SFQ(D) extension table on the
// §IV-E workload.
func BenchmarkExtSFQComparison(b *testing.B) {
	var sfqOverall, adapOverall float64
	for i := 0; i < b.N; i++ {
		rep, err := adaptbf.RunSFQComparison(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		sfqOverall = rep.Timelines[sim.SFQ].Summarize().OverallMiBps
		adapOverall = rep.Timelines[sim.AdapTBF].Summarize().OverallMiBps
	}
	b.ReportMetric(sfqOverall, "sfq_MiB/s")
	b.ReportMetric(adapOverall, "adaptbf_MiB/s")
}
