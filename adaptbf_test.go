package adaptbf_test

import (
	"context"
	"net"
	"testing"
	"time"

	"adaptbf"
	"adaptbf/internal/transport"
)

const mib = 1 << 20

func TestFacadeSimulation(t *testing.T) {
	res, err := adaptbf.Run(adaptbf.Scenario{
		Policy: adaptbf.PolicyAdapTBF,
		Jobs: []adaptbf.Job{
			adaptbf.ContinuousJob("small.n01", 1, 4, 64*mib),
			adaptbf.ContinuousJob("large.n02", 3, 4, 64*mib),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("scenario did not finish")
	}
	if got := res.Timeline.GrandTotalBytes(); got != 8*64*mib {
		t.Fatalf("served %d bytes, want %d", got, 8*64*mib)
	}
}

func TestFacadePolicies(t *testing.T) {
	jobs := []adaptbf.Job{adaptbf.ContinuousJob("j.n01", 1, 2, 16*mib)}
	for _, p := range []adaptbf.Policy{adaptbf.PolicyNoBW, adaptbf.PolicyStatic, adaptbf.PolicyAdapTBF} {
		res, err := adaptbf.Run(adaptbf.Scenario{Policy: p, Jobs: jobs})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Done {
			t.Fatalf("%v: not done", p)
		}
	}
}

func TestFacadeAblationOptions(t *testing.T) {
	res, err := adaptbf.Run(adaptbf.Scenario{
		Policy: adaptbf.PolicyAdapTBF,
		Jobs: []adaptbf.Job{
			adaptbf.ContinuousJob("a.n01", 1, 2, 16*mib),
			adaptbf.BurstyJob("b.n02", 1, 1, 16*mib, 32, time.Second),
		},
		AllocOpts: []adaptbf.AllocatorOption{
			adaptbf.WithoutRecompensation(),
			adaptbf.WithRecordTTL(50),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("ablated scenario did not finish")
	}
}

func TestFacadeExperimentRunner(t *testing.T) {
	p := adaptbf.PaperParams()
	p.Scale = 64
	rep, err := adaptbf.RunAllocationExperiment(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 || len(rep.Timelines) != 3 {
		t.Fatalf("report incomplete: %d tables, %d timelines", len(rep.Tables), len(rep.Timelines))
	}
}

func TestFacadeLiveCluster(t *testing.T) {
	oss := adaptbf.NewOSS(adaptbf.OSSConfig{})
	defer oss.Close()
	ctrl := oss.NewController(
		adaptbf.NodeMapperFunc(func(string) int { return 1 }),
		500, 50*time.Millisecond,
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Run(ctx)

	c := transport.Pipe(oss)
	defer c.Close()
	runner := &adaptbf.JobRunner{
		Job:     adaptbf.ContinuousJob("live.n01", 1, 1, 4*mib),
		Targets: []transport.Caller{c},
	}
	stats, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.RPCs != 4 {
		t.Fatalf("RPCs = %d, want 4", stats.RPCs)
	}
}

func TestFacadeMatrix(t *testing.T) {
	res, err := adaptbf.RunMatrixCtx(context.Background(), adaptbf.ScenarioMatrix{
		Scenarios: adaptbf.DefaultScenarios(),
		Policies:  []adaptbf.Policy{adaptbf.PolicyNoBW, adaptbf.PolicyAdapTBF},
		Scales:    []int64{256},
		OSSes:     []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(res.Cells))
	}
	for _, cr := range res.Cells {
		if !cr.Result.Done {
			t.Fatalf("cell %v did not finish", cr.Cell)
		}
	}
	rep := res.Report()
	if len(rep.Tables) < 2 || len(rep.Tables[0].Rows) != 6 {
		t.Fatalf("merged report malformed: %+v", rep.Tables)
	}
}

func TestFacadeMatrixCtx(t *testing.T) {
	// The context-aware entry point with functional options, on both
	// backends: sim cells stay deterministic, live cells run real
	// goroutine servers and are labeled as such.
	m := adaptbf.ScenarioMatrix{
		Scenarios: []adaptbf.MatrixScenario{{
			Name: "tiny",
			Jobs: func(p adaptbf.MatrixCellParams) []adaptbf.Job {
				return []adaptbf.Job{adaptbf.ContinuousJob("t.n01", 1, 2, 4*mib)}
			},
		}},
		Policies: []adaptbf.Policy{adaptbf.PolicyNoBW, adaptbf.PolicyAdapTBF},
		OSSes:    []int{2},
		Duration: 30 * time.Second,
	}
	simRes, err := adaptbf.RunMatrixCtx(context.Background(), m,
		adaptbf.WithMatrixWorkers(2), adaptbf.WithMatrixDigests(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range simRes.Cells {
		if cr.Backend != "sim" || len(cr.JobDigests) != 1 {
			t.Fatalf("sim cell malformed: backend=%q jobDigests=%d", cr.Backend, len(cr.JobDigests))
		}
	}
	liveRes, err := adaptbf.RunMatrixCtx(context.Background(), m,
		adaptbf.WithMatrixBackend(&adaptbf.ClusterBackend{Speedup: 8}),
		adaptbf.WithMatrixCellTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range liveRes.Cells {
		if cr.Backend != "live" {
			t.Fatalf("live cell labeled %q", cr.Backend)
		}
		if !cr.Result.Done || cr.Result.ServedRPCs != 8 {
			t.Fatalf("live cell %v: done=%v rpcs=%d", cr.Cell, cr.Result.Done, cr.Result.ServedRPCs)
		}
	}
	// Live cells in the exported document carry their backend.
	doc := adaptbf.NewMatrixDocument(liveRes, adaptbf.MatrixDocumentOptions{})
	for _, c := range doc.Cells {
		if c.Backend != "live" {
			t.Fatalf("document cell backend = %q", c.Backend)
		}
	}
}

func TestFacadeHelpers(t *testing.T) {
	p := adaptbf.DelayedPattern(adaptbf.Pattern{FileBytes: 1}, 5*time.Second)
	if p.StartDelay != 5*time.Second {
		t.Fatalf("DelayedPattern: %+v", p)
	}
	if d := adaptbf.DefaultDevice(); d.BytesPerSec <= 0 {
		t.Fatalf("DefaultDevice: %+v", d)
	}
}

func TestFacadePipeAndServe(t *testing.T) {
	oss := adaptbf.NewOSS(adaptbf.OSSConfig{})
	defer oss.Close()
	// In-process pipe path.
	pc := adaptbf.PipeOSS(oss)
	defer pc.Close()
	runner := &adaptbf.JobRunner{
		Job:     adaptbf.ContinuousJob("pipe.n01", 1, 1, 2*mib),
		Targets: []adaptbf.Caller{pc},
	}
	if stats, err := runner.Run(context.Background()); err != nil || stats.RPCs != 2 {
		t.Fatalf("pipe run: %v %+v", err, stats)
	}
	// TCP path.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go adaptbf.ServeOSS(l, oss)
	tc, err := adaptbf.DialOSS("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	runner2 := &adaptbf.JobRunner{
		Job:     adaptbf.ContinuousJob("tcp.n01", 1, 1, 2*mib),
		Targets: []adaptbf.Caller{tc},
	}
	if stats, err := runner2.Run(context.Background()); err != nil || stats.RPCs != 2 {
		t.Fatalf("tcp run: %v %+v", err, stats)
	}
}
