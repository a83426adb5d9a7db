package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adaptbf/internal/policy"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// A ServerConfig describes one storage server and the bandwidth-control
// machinery its policy's table row (package policy) puts beside it.
type ServerConfig struct {
	// OSS configures the storage server itself. Leave OSS.SFQ and
	// OSS.EDT nil: the server installs the gate Policy's row names,
	// weighted or paced from Nodes.
	OSS OSSConfig
	// Policy selects the gate and the control loop.
	Policy policy.Policy
	// MaxRate is the target's token capacity in tokens/s: what static
	// rules and EDT rates split by node share, and what the AdapTBF
	// controller and the GIFT coordinator allocate each epoch.
	MaxRate float64
	// Period is the controller/coordinator decision epoch in OSS time.
	Period time.Duration
	// SFQDepth is the SFQ(D) dispatch depth.
	SFQDepth int
	// Nodes maps each job ID to its compute-node count. Jobs not listed
	// count as 1 node (and are left unpaced by EDT).
	Nodes map[string]int
	// Coord reaches the cell's GIFT coordinator — an in-process pipe or
	// a reconnecting Redialer to another process. A central-coordinator
	// policy requires it; the others ignore it. StartServer takes
	// ownership: the server closes it at Stop, or at once if starting
	// fails.
	Coord transport.Caller
}

// A Server is a storage server plus its policy machinery — rules
// installed at start, or a controller or coordinator agent running
// beside it — with one stop that quiesces the machinery before closing
// the OSS. It is the same small thing beside every OSS wherever the OSS
// runs: the in-process live backend starts Servers directly, a Node
// wraps one in a TCP listener.
type Server struct {
	oss   *OSS
	agent *GIFTAgent
	coord transport.Caller

	stopCtl  context.CancelFunc
	ctlWG    sync.WaitGroup
	stopOnce sync.Once
	final    NodeStats
}

// StartServer starts the OSS and whatever cfg.Policy runs beside it.
func StartServer(cfg ServerConfig) (*Server, error) {
	d, ok := policy.Lookup(cfg.Policy)
	if !ok {
		if cfg.Coord != nil {
			cfg.Coord.Close()
		}
		return nil, fmt.Errorf("cluster: policy %v has no live implementation (supported: %s)", cfg.Policy, policy.Flags())
	}
	if d.Control == policy.CentralCoordinator && cfg.Coord == nil {
		return nil, fmt.Errorf("cluster: the %s policy needs a coordinator", d.Flag)
	}
	shares := policy.NewNodeShares(cfg.Nodes)
	ocfg := cfg.OSS
	switch d.Gate {
	case policy.SFQGate:
		ocfg.SFQ = &SFQConfig{Depth: cfg.SFQDepth, Weights: shares.Weight}
	case policy.EDTGate:
		ocfg.EDT = &EDTConfig{Rates: shares.ByteRates(cfg.MaxRate)}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{oss: NewOSS(ocfg), coord: cfg.Coord, stopCtl: stop}
	switch d.Control {
	case policy.StaticRules:
		// The same workload.StaticRules the simulator installs, so the
		// baseline cannot drift between substrates.
		jobs := make([]workload.Job, 0, len(cfg.Nodes))
		for id, k := range cfg.Nodes {
			jobs = append(jobs, workload.Job{ID: id, Nodes: k})
		}
		eng := s.oss.Engine()
		for _, r := range workload.StaticRules(jobs, cfg.MaxRate, 0) {
			if err := eng.StartRule(r, s.oss.Now()); err != nil {
				s.Stop()
				return nil, fmt.Errorf("cluster: static rule %s: %w", r.Name, err)
			}
		}
	case policy.PerOSSController:
		// One independent controller per storage server — the paper's
		// decentralization property, live.
		s.run(ctx, s.oss.NewController(shares, cfg.MaxRate, cfg.Period).Run)
	case policy.CentralCoordinator:
		// The agent consults the one coordinator over the transport each
		// epoch, so GIFT's serial central walk happens as real RPCs.
		s.agent = s.oss.NewGIFTAgent(cfg.Coord, cfg.MaxRate, cfg.Period)
		s.run(ctx, s.agent.Run)
	}
	return s, nil
}

// run starts one control-loop goroutine that Stop cancels and awaits.
func (s *Server) run(ctx context.Context, loop func(context.Context)) {
	s.ctlWG.Add(1)
	go func() {
		defer s.ctlWG.Done()
		loop(ctx)
	}()
}

// OSS returns the served storage server: the transport.Handler clients
// connect to, and the source of the counters readable while it serves.
func (s *Server) OSS() *OSS { return s.oss }

// Stop quiesces the control loop — cancel, then wait, so no controller
// tick or coordinator walk lands after its stats are read or against a
// closed OSS — closes the OSS, and returns the final snapshot, including
// the device counters only a closed OSS can report (who and where the
// server is, is for its owner to fill in). Further calls return the same
// snapshot.
func (s *Server) Stop() NodeStats {
	s.stopOnce.Do(func() {
		s.stopCtl()
		s.ctlWG.Wait()
		s.oss.Close()
		st := &s.final
		var busy time.Duration
		st.ServedRPCs, busy = s.oss.DeviceStats()
		st.BusySeconds = busy.Seconds()
		st.RejectedRPCs, st.ShedRPCs, st.OfferedBytes, st.GoodputBytes = s.oss.AdmissionStats()
		if s.agent != nil {
			ag := s.agent.Stats()
			st.WalkTimes, st.RuleOps, st.CtrlMsgs = ag.WalkTimes, ag.RuleOps, ag.CtrlMsgs
		}
		if s.coord != nil {
			s.coord.Close()
		}
	})
	return s.final
}
