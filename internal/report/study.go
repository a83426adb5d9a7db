package report

import (
	"context"
	"fmt"
	"time"

	"adaptbf/internal/experiments"
	"adaptbf/internal/harness"
	"adaptbf/internal/metrics"
	"adaptbf/internal/sim"
	"adaptbf/internal/stats"
)

// GIFTScaleStudyName is the Study.Name of the built-in scale study, and
// the value the CLI's -study flag accepts.
const GIFTScaleStudyName = "gift-scale"

// A Study is the study-specific section of a Document.
type Study struct {
	Name        string     `json:"name"`
	Description string     `json:"description"`
	Rows        []StudyRow `json:"rows"`
	Gaps        []GapRow   `json:"gaps"`
}

// A StudyRow is one policy's seed-axis statistics at one OSS count. CI
// fields are Student-t half-widths at the document's CILevel (0 when
// fewer than two seeds ran).
type StudyRow struct {
	OSSes  int    `json:"osses"`
	Policy string `json:"policy"`
	Seeds  int64  `json:"seeds"`

	MeanMiBps float64 `json:"mean_mibps"`
	CIMiBps   float64 `json:"ci_mibps"`

	// Fairness is Jain's index over per-job bandwidth normalized by each
	// job's compute-node priority — 1.0 means every job got exactly its
	// priority-proportional share.
	FairnessMean float64 `json:"fairness_mean"`
	FairnessCI   float64 `json:"fairness_ci"`

	UtilizationMean float64 `json:"utilization_mean"`
	UtilizationCI   float64 `json:"utilization_ci"`

	// CoordUSPerEpoch is the serial work at the policy's coordination
	// point each epoch, in microseconds: for GIFT the centralized
	// controller's whole walk over every storage target (it is one
	// process, so the walk is serial by design); for AdapTBF the mean
	// per-target controller tick (each target's controller runs
	// independently, so per-target cost IS the critical path); 0 for
	// NoBW. Wall-clock derived: reporting-only, never fingerprinted.
	CoordUSPerEpochMean float64 `json:"coord_us_per_epoch_mean"`
	CoordUSPerEpochCI   float64 `json:"coord_us_per_epoch_ci"`

	// RuleOpsPerEpoch is the mean number of TBF rule operations the
	// policy issued per epoch — the deterministic coordination-traffic
	// measure (every op is a control-plane mutation on a storage target).
	RuleOpsPerEpoch float64 `json:"rule_ops_per_epoch"`

	// CtrlMsgsPerEpoch is the deterministic controller-message count at
	// the policy's coordination point per epoch (sim.Result.CtrlMsgs:
	// two messages per controller cycle per target plus one per rule
	// op), split the same way as CoordUSPerEpoch — GIFT's whole serial
	// walk vs AdapTBF's per-target mean. Being a pure function of the
	// simulation, it is the fingerprint-stable twin of the wall-clock
	// coordination columns.
	CtrlMsgsPerEpochMean float64 `json:"ctrl_msgs_per_epoch_mean"`
	CtrlMsgsPerEpochCI   float64 `json:"ctrl_msgs_per_epoch_ci"`

	// CouponBankEntries is the mean end-of-run size of GIFT's global
	// coupon bank (jobs with non-zero balance), and CouponsOutstanding
	// the mean total balance (tokens) still owed — centralized state
	// with no AdapTBF equivalent; 0 for other policies.
	CouponBankEntries  float64 `json:"coupon_bank_entries,omitempty"`
	CouponsOutstanding float64 `json:"coupons_outstanding,omitempty"`
}

// A GapRow quantifies the GIFT-vs-AdapTBF gap at one OSS count, from
// seed-paired differences (each seed contributes one difference, so the
// CIs are over the paired deltas, not the pooled populations). Seeds is
// the number of seed pairs with both policies present; a per-metric
// statistic can cover fewer pairs when its denominator is degenerate
// (zero baseline bandwidth or sub-microsecond coordination time), in
// which case its *N field says how many pairs actually fed it — 0 means
// the statistic is unavailable, not zero.
type GapRow struct {
	OSSes int   `json:"osses"`
	Seeds int64 `json:"seeds"`

	// ThroughputPct is GIFT's overall bandwidth relative to AdapTBF's,
	// in percent (negative = GIFT slower).
	ThroughputPctMean float64 `json:"throughput_pct_mean"`
	ThroughputPctCI   float64 `json:"throughput_pct_ci"`
	ThroughputPctN    int64   `json:"throughput_pct_n"`

	// FairnessDelta is GIFT's Jain index minus AdapTBF's (negative =
	// GIFT less priority-fair).
	FairnessDeltaMean float64 `json:"fairness_delta_mean"`
	FairnessDeltaCI   float64 `json:"fairness_delta_ci"`

	// CoordRatio is GIFT's per-epoch serial coordination cost over
	// AdapTBF's — the centralization overhead factor the paper argues
	// grows with scale. CoordRatioN == 0 means no seed pair produced a
	// measurable ratio (e.g. coordination time below clock resolution).
	CoordRatioMean float64 `json:"coord_ratio_mean"`
	CoordRatioCI   float64 `json:"coord_ratio_ci"`
	CoordRatioN    int64   `json:"coord_ratio_n"`

	// MsgRatio is the deterministic counterpart of CoordRatio: GIFT's
	// per-epoch serial controller messages over AdapTBF's per-target
	// mean. It is a pure function of the matrix cells, so — unlike the
	// wall-clock ratio — identical runs report identical gap values.
	MsgRatioMean float64 `json:"msg_ratio_mean"`
	MsgRatioCI   float64 `json:"msg_ratio_ci"`
	MsgRatioN    int64   `json:"msg_ratio_n"`
}

// ScaleStudyOptions parameterizes RunGIFTScaleStudy. The zero value runs
// the acceptance configuration: striped-seq × {NoBW, AdapTBF, GIFT} ×
// OSS {1,2,4,8} × seeds {1..5} at scale 64.
type ScaleStudyOptions struct {
	Scenario harness.Scenario // default harness.StripedSequentialScenario()
	OSSes    []int            // default {1, 2, 4, 8}
	Seeds    []int64          // default {1, 2, 3, 4, 5}
	Scale    int64            // default 64
	Duration time.Duration    // default 30 simulated minutes
	Workers  int              // default NumCPU
	CILevel  float64          // default harness.DefaultCILevel

	// IncludeBuckets forwards to Options.IncludeBuckets for the JSON
	// document.
	IncludeBuckets bool
	// OnCell forwards to harness.WithProgress for progress reporting.
	OnCell func(harness.CellResult)
}

func (o ScaleStudyOptions) normalize() ScaleStudyOptions {
	if o.Scenario.Jobs == nil {
		o.Scenario = harness.StripedSequentialScenario()
	}
	if len(o.OSSes) == 0 {
		o.OSSes = []int{1, 2, 4, 8}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if o.Scale < 1 {
		o.Scale = 64
	}
	if o.Duration <= 0 {
		o.Duration = 30 * time.Minute
	}
	if o.CILevel <= 0 || o.CILevel >= 1 {
		o.CILevel = harness.DefaultCILevel
	}
	return o
}

// A ScaleStudy is a finished GIFT-vs-AdapTBF scale study: the raw merged
// matrix, the JSON document (with the Study section filled), and a
// renderable/CSV-exportable report whose tables include the
// centralization-overhead comparison.
type ScaleStudy struct {
	Matrix   *harness.MatrixResult
	Document *Document
	Report   *experiments.Report
}

// RunGIFTScaleStudy reproduces the paper's decentralization claim at
// scale: it sweeps GIFT (one centralized controller spanning every
// storage target), AdapTBF (one independent controller per target), and
// the NoBW floor across OSS counts with seed replication, and reports
// per-OSS-count coordination cost, priority fairness, and utilization
// with Student-t confidence intervals over the seed axis — the
// quantified version of §IV-C's critique that GIFT's centralization pays
// a per-server price AdapTBF's token borrowing avoids.
func RunGIFTScaleStudy(opt ScaleStudyOptions) (*ScaleStudy, error) {
	opt = opt.normalize()
	m := harness.Matrix{
		Scenarios: []harness.Scenario{opt.Scenario},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF, sim.GIFT},
		Scales:    []int64{opt.Scale},
		OSSes:     opt.OSSes,
		Seeds:     opt.Seeds,
		Duration:  opt.Duration,
	}
	res, err := harness.Run(context.Background(), m,
		harness.WithWorkers(opt.Workers), harness.WithProgress(opt.OnCell))
	if err != nil {
		return nil, err
	}
	// One Summaries pass feeds the document, the study fold, and the
	// rendered report alike.
	sums := res.Summaries()
	doc := fromMatrix(res, sums, Options{
		CILevel:        opt.CILevel,
		Title:          "GIFT vs AdapTBF centralization-overhead scale study",
		IncludeBuckets: opt.IncludeBuckets,
	})
	doc.Kind = GIFTScaleStudyName
	study, tables := buildScaleStudy(res, sums, opt)
	doc.Study = study

	rep := res.ReportCIWith(sums, opt.CILevel)
	rep.ID = GIFTScaleStudyName
	rep.Title = doc.Title
	rep.Tables = append(rep.Tables, tables...)
	return &ScaleStudy{Matrix: res, Document: doc, Report: rep}, nil
}

// cellMetrics are the per-cell scalars the study accumulates per
// (OSS count, policy) group.
type cellMetrics struct {
	mibps    float64
	fairness float64
	util     float64
	coordUS  float64
	ruleOps  float64
	msgs     float64
	bank     float64
	coupons  float64
}

// metricsOf derives one cell's study scalars from its result and its
// precomputed timeline summary.
func metricsOf(cr harness.CellResult, sc harness.Scenario, sum metrics.Summary) cellMetrics {
	res := cr.Result
	var cm cellMetrics
	cm.mibps = sum.OverallMiBps

	cm.fairness = priorityFairness(sc, cr, sum)

	var util float64
	for i := range res.DeviceBusy {
		util += res.Utilization(i)
	}
	if len(res.DeviceBusy) > 0 {
		cm.util = util / float64(len(res.DeviceBusy))
	}

	// TickTimes holds one entry per OSS walk per epoch for both GIFT and
	// AdapTBF, so epochs = entries / OSSes.
	if ticks := len(res.TickTimes); ticks > 0 {
		epochs := float64(ticks) / float64(cr.Cell.OSSes)
		var total time.Duration
		for _, d := range res.TickTimes {
			total += d
		}
		switch res.Policy {
		case sim.GIFT:
			// One controller does every walk serially: per-epoch serial
			// cost is the whole sweep. Same split for the deterministic
			// message counter.
			cm.coordUS = float64(total.Microseconds()) / epochs
			cm.msgs = float64(res.CtrlMsgs) / epochs
		default:
			// Decentralized: each target's controller works alone, so the
			// per-epoch serial cost is the mean per-target tick.
			cm.coordUS = float64(total.Microseconds()) / float64(ticks)
			cm.msgs = float64(res.CtrlMsgs) / float64(ticks)
		}
		cm.ruleOps = float64(res.RuleOps) / epochs
	}
	cm.bank = float64(res.GIFTBankEntries)
	cm.coupons = res.GIFTCouponsOutstanding
	return cm
}

// priorityFairness computes one cell's node-normalized Jain fairness
// index: x_j = bandwidth_j / nodes_j, so 1.0 means every job received
// exactly its compute-priority-proportional share. Shared by the scale
// and calibration studies.
func priorityFairness(sc harness.Scenario, cr harness.CellResult, sum metrics.Summary) float64 {
	jobs := sc.Jobs(cr.Cell.Params())
	var sx, sxx float64
	n := 0
	for _, j := range jobs {
		nodes := j.Nodes
		if nodes < 1 {
			nodes = 1
		}
		x := sum.PerJob[j.ID].AvgMiBps / float64(nodes)
		sx += x
		sxx += x * x
		n++
	}
	if n == 0 || sxx == 0 {
		return 0
	}
	return sx * sx / (float64(n) * sxx)
}

// buildScaleStudy folds the matrix cells into the study rows, gap rows,
// and their renderable tables.
func buildScaleStudy(res *harness.MatrixResult, sums []metrics.Summary, opt ScaleStudyOptions) (*Study, []experiments.Table) {
	type key struct {
		osses  int
		policy sim.Policy
	}
	type agg struct {
		mibps, fairness, util, coord, ruleOps, msgs, bank, coupons stats.Moments
		byseed                                                     map[int64]cellMetrics
	}
	groups := make(map[key]*agg)
	for i, cr := range res.Cells {
		if cr.Err != nil {
			continue
		}
		cm := metricsOf(cr, opt.Scenario, sums[i])
		k := key{cr.Cell.OSSes, cr.Cell.Policy}
		g, ok := groups[k]
		if !ok {
			g = &agg{byseed: make(map[int64]cellMetrics)}
			groups[k] = g
		}
		g.mibps.Add(cm.mibps)
		g.fairness.Add(cm.fairness)
		g.util.Add(cm.util)
		g.coord.Add(cm.coordUS)
		g.ruleOps.Add(cm.ruleOps)
		g.msgs.Add(cm.msgs)
		g.bank.Add(cm.bank)
		g.coupons.Add(cm.coupons)
		g.byseed[cr.Cell.Seed] = cm
	}

	level := opt.CILevel
	study := &Study{
		Name: GIFTScaleStudyName,
		Description: "Centralization overhead at scale: GIFT's single controller walks every " +
			"storage target serially each epoch and keeps a global coupon bank, while AdapTBF " +
			"runs one independent controller per target. Rows report per-policy seed-axis " +
			"statistics per OSS count; gaps report seed-paired GIFT-minus-AdapTBF differences.",
	}
	overhead := experiments.Table{
		Name: "gift-scale-overhead",
		Header: []string{"OSSes", "policy", "seeds", "mean MiB/s", "±CI",
			"fairness", "±CI", "utilization", "±CI",
			"coord µs/epoch", "±CI", "ctrl msgs/epoch", "rule ops/epoch", "coupon bank"},
	}
	gapT := experiments.Table{
		Name: "gift-scale-gap",
		Header: []string{"OSSes", "seeds", "GIFT vs AdapTBF MiB/s (%)", "±CI",
			"fairness Δ", "±CI", "coord ratio", "±CI", "msg ratio", "±CI"},
	}

	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	f3 := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, osses := range opt.OSSes {
		for _, pol := range []sim.Policy{sim.NoBW, sim.AdapTBF, sim.GIFT} {
			g, ok := groups[key{osses, pol}]
			if !ok {
				continue
			}
			row := StudyRow{
				OSSes:                osses,
				Policy:               pol.String(),
				Seeds:                g.mibps.N(),
				MeanMiBps:            g.mibps.Mean(),
				CIMiBps:              g.mibps.CIHalfWidth(level),
				FairnessMean:         g.fairness.Mean(),
				FairnessCI:           g.fairness.CIHalfWidth(level),
				UtilizationMean:      g.util.Mean(),
				UtilizationCI:        g.util.CIHalfWidth(level),
				CoordUSPerEpochMean:  g.coord.Mean(),
				CoordUSPerEpochCI:    g.coord.CIHalfWidth(level),
				RuleOpsPerEpoch:      g.ruleOps.Mean(),
				CtrlMsgsPerEpochMean: g.msgs.Mean(),
				CtrlMsgsPerEpochCI:   g.msgs.CIHalfWidth(level),
				CouponBankEntries:    g.bank.Mean(),
				CouponsOutstanding:   g.coupons.Mean(),
			}
			study.Rows = append(study.Rows, row)
			overhead.Rows = append(overhead.Rows, []string{
				fmt.Sprintf("%d", osses), row.Policy, fmt.Sprintf("%d", row.Seeds),
				f1(row.MeanMiBps), f1(row.CIMiBps),
				f3(row.FairnessMean), f3(row.FairnessCI),
				f3(row.UtilizationMean), f3(row.UtilizationCI),
				f1(row.CoordUSPerEpochMean), f1(row.CoordUSPerEpochCI),
				f1(row.CtrlMsgsPerEpochMean),
				f1(row.RuleOpsPerEpoch), f1(row.CouponBankEntries),
			})
		}

		gift, okG := groups[key{osses, sim.GIFT}]
		adap, okA := groups[key{osses, sim.AdapTBF}]
		if !okG || !okA {
			continue
		}
		var dThr, dFair, rCoord, rMsgs stats.Moments
		var pairs int64
		// Walk seeds in declaration order, not map order: the fold must be
		// deterministic so identical runs emit identical documents.
		for _, seed := range opt.Seeds {
			gm, okG := gift.byseed[seed]
			am, okA := adap.byseed[seed]
			if !okG || !okA {
				continue
			}
			pairs++
			if am.mibps > 0 {
				dThr.Add((gm.mibps - am.mibps) / am.mibps * 100)
			}
			dFair.Add(gm.fairness - am.fairness)
			if am.coordUS > 0 {
				rCoord.Add(gm.coordUS / am.coordUS)
			}
			if am.msgs > 0 {
				rMsgs.Add(gm.msgs / am.msgs)
			}
		}
		gap := GapRow{
			OSSes:             osses,
			Seeds:             pairs,
			ThroughputPctMean: dThr.Mean(),
			ThroughputPctCI:   dThr.CIHalfWidth(level),
			ThroughputPctN:    dThr.N(),
			FairnessDeltaMean: dFair.Mean(),
			FairnessDeltaCI:   dFair.CIHalfWidth(level),
			CoordRatioMean:    rCoord.Mean(),
			CoordRatioCI:      rCoord.CIHalfWidth(level),
			CoordRatioN:       rCoord.N(),
			MsgRatioMean:      rMsgs.Mean(),
			MsgRatioCI:        rMsgs.CIHalfWidth(level),
			MsgRatioN:         rMsgs.N(),
		}
		study.Gaps = append(study.Gaps, gap)
		// Render unavailable statistics as "-", never as a numeric 0.
		thr, thrCI := "-", "-"
		if gap.ThroughputPctN > 0 {
			thr, thrCI = fmt.Sprintf("%+.1f", gap.ThroughputPctMean), f1(gap.ThroughputPctCI)
		}
		coord, coordCI := "-", "-"
		if gap.CoordRatioN > 0 {
			coord, coordCI = fmt.Sprintf("%.2f", gap.CoordRatioMean), fmt.Sprintf("%.2f", gap.CoordRatioCI)
		}
		msg, msgCI := "-", "-"
		if gap.MsgRatioN > 0 {
			msg, msgCI = fmt.Sprintf("%.2f", gap.MsgRatioMean), fmt.Sprintf("%.2f", gap.MsgRatioCI)
		}
		gapT.Rows = append(gapT.Rows, []string{
			fmt.Sprintf("%d", osses), fmt.Sprintf("%d", gap.Seeds),
			thr, thrCI,
			fmt.Sprintf("%+.3f", gap.FairnessDeltaMean), f3(gap.FairnessDeltaCI),
			coord, coordCI,
			msg, msgCI,
		})
	}
	return study, []experiments.Table{overhead, gapT}
}
