package harness

import (
	"context"
	"fmt"
	"time"

	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/transport"
)

// ClusterBackend runs cells as live wall-clock deployments inside this
// process: per cell it starts Cell.OSSes storage servers (cluster.Server:
// an OSS with its own dispatcher goroutine and whatever the cell's policy
// runs beside it — see package policy's table), connects one
// cluster.JobRunner per job over transport.Pipe, and executes the
// scenario's workload as real concurrent RPC traffic (runLiveCell). This
// is the paper's Figure 2 deployment driving the same Matrix the
// simulator sweeps; a GIFT cell's one central coordinator is consulted
// over a pipe too, so its serial walk costs real RPCs.
//
// Live cells are inherently nondeterministic (scheduling, timers): they
// never partake in golden fingerprints, and CellResult.Backend = "live"
// marks them in every report.
type ClusterBackend struct {
	// Device parameterizes each OSS's backing store. Zero means
	// device.Default() — the same SSD-class target simulator cells use.
	Device device.Params
	// Speedup accelerates the modeled device and controller clocks
	// (cluster.OSSConfig.Speedup): a Speedup of 50 runs a 30-minute
	// workload in ~36 wall seconds. Default 1.
	Speedup float64
	// TBFShards, when > 1, stripes each OSS's token-bucket gate across
	// that many locks keyed by flow hash (cluster.ShardedTBF) instead
	// of the single-lock gate, for the policies the table gates through
	// TBF. The gate-contention study sweeps this.
	TBFShards int
}

// Name reports "live".
func (b *ClusterBackend) Name() string { return "live" }

// RunCell executes one live cell.
func (b *ClusterBackend) RunCell(ctx context.Context, spec CellSpec) (CellOutcome, error) {
	if spec.Faults.CrashOSS {
		return CellOutcome{}, fmt.Errorf("harness: the in-process live backend has no OSS process to crash; use -backend remote for crash/restart faults")
	}
	oss := cluster.OSSConfig{Device: b.Device, Speedup: b.Speedup, TBFShards: b.TBFShards}
	return runLiveCell(ctx, spec, oss, &pipePlacement{spec: spec})
}

// pipePlacement runs a cell's servers as goroutines of this process,
// reached over in-memory pipes that pay the cell's network faults.
type pipePlacement struct {
	spec    CellSpec
	coord   *cluster.GIFTCoordinator
	servers []*cluster.Server
	conns   int // fault-seed connection index; 0 is every coordinator pipe
}

// pipe opens a faulted pipe to h under the next connection's seed.
func (p *pipePlacement) pipe(h transport.Handler, conn int) transport.Caller {
	return transport.PipeFault(h, p.spec.Faults.Net, faultSeed(p.spec.Cell.Seed, conn))
}

func (p *pipePlacement) startCoord() error {
	p.coord = cluster.NewGIFTCoordinator(p.spec.Period)
	return nil
}

func (p *pipePlacement) startTarget(_ int, cfg cluster.ServerConfig) (liveTarget, error) {
	if p.coord != nil {
		// The coordinator pipe is part of the faulted network: GIFT's
		// central walk pays the injected delays like any other RPC.
		cfg.Coord = p.pipe(p.coord, 0)
	}
	srv, err := cluster.StartServer(cfg)
	if err != nil {
		return liveTarget{}, err
	}
	p.servers = append(p.servers, srv)
	return liveTarget{
		dial: func() transport.Caller {
			p.conns++
			return p.pipe(srv.OSS(), p.conns)
		},
		stop: srv.Stop,
	}, nil
}

func (p *pipePlacement) stopCoord() cluster.NodeStats { return p.coord.Stats() }

// budget: none. A pipe cannot fail in transit, and a stalled in-process
// OSS is a bug to surface, not a fault to ride out.
func (p *pipePlacement) budget() (time.Duration, int, time.Duration) { return 0, 0, 0 }

func (p *pipePlacement) release() {
	for _, srv := range p.servers {
		srv.Stop()
	}
}
