package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"adaptbf/internal/obs"
	"adaptbf/internal/policy"
	"adaptbf/internal/transport"
)

// Control-plane opcodes a Node answers itself, in the same far-out range
// as OpGIFTWalk so they can never collide with storage traffic.
const (
	// OpObsDrain drains the node's observability: the reply payload is an
	// ObsDrain JSON — trace events accumulated since the previous drain
	// plus a cumulative metrics snapshot. Spawners call it at teardown to
	// fold the node's spans and counters into the cell.
	OpObsDrain uint8 = 0xF7
	// OpNodeHealth is the readiness probe: the reply payload is a
	// NodeHealth JSON (role, policy, uptime, Go version, obs status), so
	// a spawner can verify it addressed the process it meant to.
	OpNodeHealth uint8 = 0xF8
	// OpNodeStats returns a NodeStats JSON snapshot of what is safely
	// observable while the node is serving (device counters only appear
	// in the final drain snapshot — they require a closed OSS).
	OpNodeStats uint8 = 0xF9
)

// A NodeConfig describes one adaptbf-node process: a Server (or a GIFT
// coordinator) behind a TCP listener, with optional fault injection on
// every accepted connection. The policy fields are handed to the Server
// unchanged (see ServerConfig); what is the node's own is the listener,
// the faults, the drain bound and the control opcodes.
type NodeConfig struct {
	// Role is "oss" (default) or "coord" (a GIFT coordinator only).
	Role string
	// Listen is the TCP listen address. Default "127.0.0.1:0".
	Listen string

	// OSS configures the storage server ("oss" role).
	OSS OSSConfig
	// Policy is the policy's flag or an alias from package policy's
	// table. Empty means the table's first row (no bandwidth control).
	Policy string
	// MaxRate, Period, SFQDepth and Nodes are ServerConfig's fields of
	// the same names; the coordinator role uses Period as its epoch.
	MaxRate  float64
	Period   time.Duration
	SFQDepth int
	Nodes    map[string]int
	// CoordAddr is the GIFT coordinator's address, dialed (and redialed)
	// as the Server's Coord.
	CoordAddr string

	// Fault, when nonzero, wraps every accepted connection so each
	// message this node sends pays the profile's delays, seeded by
	// FaultSeed plus a per-connection offset.
	Fault     transport.Fault
	FaultSeed uint64

	// DrainTimeout bounds the graceful drain: connections still open
	// that long after Close are force-closed. Default 5s.
	DrainTimeout time.Duration

	// Obs enables the node's observability: a metrics registry and a
	// tracer wired through the served OSS, drained over the wire via
	// OpObsDrain and servable over HTTP (see Obs and cmd/adaptbf-node's
	// -obs-addr). Off by default — the node then pays only nil checks.
	Obs bool
}

// A NodeHealth is the health probe's reply payload.
type NodeHealth struct {
	Role      string  `json:"role"`
	Policy    string  `json:"policy"`
	UptimeS   float64 `json:"uptime_s"`
	GoVersion string  `json:"go_version"`
	Obs       bool    `json:"obs"`
}

// ParseNodeHealth decodes a health reply payload.
func ParseNodeHealth(payload []byte) (NodeHealth, error) {
	var h NodeHealth
	err := json.Unmarshal(payload, &h)
	return h, err
}

// An ObsDrain is the OpObsDrain reply payload: the trace events
// accumulated since the previous drain and a snapshot of the metrics
// registry. Events drain incrementally; the snapshot is cumulative, so
// a folder keeps only the latest one rather than summing drains.
type ObsDrain struct {
	Events   []obs.Event  `json:"events,omitempty"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

// NodeStats is a node's observable state: served live via OpNodeStats
// (device fields zero — they require a closed OSS) and printed as the
// final drain snapshot by cmd/adaptbf-node.
type NodeStats struct {
	Role   string `json:"role"`
	Policy string `json:"policy"`
	Addr   string `json:"addr"`

	Conns       int     `json:"conns"`
	PendingRPCs int     `json:"pending_rpcs"`
	ServedRPCs  uint64  `json:"served_rpcs,omitempty"`
	BusySeconds float64 `json:"busy_seconds,omitempty"`

	Walks              int64   `json:"walks,omitempty"`
	BankEntries        int     `json:"bank_entries,omitempty"`
	CouponsOutstanding float64 `json:"coupons_outstanding,omitempty"`

	// Admission counters (zero under always-admit; see OSS.AdmissionStats).
	RejectedRPCs uint64 `json:"rejected_rpcs,omitempty"`
	ShedRPCs     uint64 `json:"shed_rpcs,omitempty"`
	OfferedBytes int64  `json:"offered_bytes,omitempty"`
	GoodputBytes int64  `json:"goodput_bytes,omitempty"`

	// A GIFT agent's coordination cost (see GIFTAgentStats), in a
	// Server's final snapshot only. WalkTimes holds one entry per epoch,
	// so it stays in memory: a STATS line carries the two counters.
	RuleOps   int             `json:"rule_ops,omitempty"`
	CtrlMsgs  int64           `json:"ctrl_msgs,omitempty"`
	WalkTimes []time.Duration `json:"-"`
}

// MarshalLine renders the stats as one compact JSON object — the
// daemon's STATS drain line, which spawners parse back with
// ParseNodeStats.
func (s NodeStats) MarshalLine() ([]byte, error) { return json.Marshal(s) }

// ParseNodeStats decodes a STATS drain line's JSON object.
func ParseNodeStats(line []byte) (NodeStats, error) {
	var s NodeStats
	err := json.Unmarshal(line, &s)
	return s, err
}

// A Node is one adaptbf-node process's core: a listener in front of a
// Server or a GIFT coordinator. Start with StartNode; stop with Close
// (graceful drain).
type Node struct {
	cfg    NodeConfig
	ln     net.Listener
	srv    *Server
	coord  *GIFTCoordinator
	acoord *transport.Redialer
	obs    *obs.CellObs
	start  time.Time

	// Last coordinator-Redialer counters already folded into the metrics
	// registry, under mu (syncObsTransport adds only the delta).
	obsDials   int64
	obsRetries int64

	acceptWG  sync.WaitGroup
	connWG    sync.WaitGroup
	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	connSeq   uint64
	closing   bool
	closeOnce sync.Once
	final     NodeStats
}

// StartNode validates the config, stands up the role, binds the
// listener, and starts accepting connections.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Role == "" {
		cfg.Role = "oss"
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	var pol policy.Policy
	if cfg.Policy != "" {
		var err error
		if pol, err = policy.Parse(cfg.Policy); err != nil {
			return nil, fmt.Errorf("cluster: node: %w", err)
		}
	}
	desc, _ := policy.Lookup(pol)
	cfg.Policy = desc.Flag // health and stats report the canonical name

	n := &Node{cfg: cfg, conns: make(map[net.Conn]struct{}), start: time.Now()}
	if cfg.Obs {
		// The tracer's fallback clock is wall time since node start; the
		// OSS stamps its own spans with OSS time, which shares the epoch.
		start := n.start
		n.obs = &obs.CellObs{
			Tracer:  obs.NewTracer(func() int64 { return int64(time.Since(start)) }),
			Metrics: obs.NewRegistry(),
		}
	}

	switch cfg.Role {
	case "coord":
		// A coordinator runs no per-server control loop; naming a policy
		// that has one is a mis-addressed flag.
		if desc.Control != policy.CentralCoordinator && desc.Control != policy.NoControl {
			return nil, fmt.Errorf("cluster: the coord role serves a central-coordinator policy only (policy %q)", cfg.Policy)
		}
		n.coord = NewGIFTCoordinator(cfg.Period)
	case "oss":
		if err := cfg.OSS.Admission.Validate(); err != nil {
			return nil, err
		}
		scfg := ServerConfig{
			OSS:      cfg.OSS,
			Policy:   pol,
			MaxRate:  cfg.MaxRate,
			Period:   cfg.Period,
			SFQDepth: cfg.SFQDepth,
			Nodes:    cfg.Nodes,
		}
		scfg.OSS.Obs = n.obs
		if cfg.CoordAddr != "" {
			// A Redialer, not a single client: the coordinator process may
			// restart (or simply start second), and the agent's idempotent
			// walks tolerate the replays reconnection implies.
			n.acoord = &transport.Redialer{Network: "tcp", Addr: cfg.CoordAddr}
			scfg.Coord = n.acoord
		}
		srv, err := StartServer(scfg)
		if err != nil {
			return nil, err
		}
		n.srv = srv
	default:
		return nil, fmt.Errorf("cluster: unknown node role %q (want oss or coord)", cfg.Role)
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		if n.srv != nil {
			n.srv.Stop()
		}
		return nil, err
	}
	n.ln = ln
	n.acceptWG.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr reports the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

func (n *Node) acceptLoop() {
	defer n.acceptWG.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closing {
			n.mu.Unlock()
			conn.Close()
			continue
		}
		n.connSeq++
		fc := transport.FaultedConn(conn, n.cfg.Fault, n.cfg.FaultSeed+n.connSeq*0x9e3779b97f4a7c15)
		n.conns[fc] = struct{}{}
		n.mu.Unlock()
		n.connWG.Add(1)
		go func() {
			defer n.connWG.Done()
			_ = transport.ServeConn(fc, n)
			fc.Close()
			n.mu.Lock()
			delete(n.conns, fc)
			n.mu.Unlock()
		}()
	}
}

// Handle implements transport.Handler for callers that hold a reply
// func; the served path is Serve.
func (n *Node) Handle(req transport.Request, reply func(transport.Reply)) {
	n.Serve(req, transport.ResponderFunc(reply))
}

// Serve implements transport.Server: node control opcodes are answered
// here, GIFT walks route to the coordinator, everything else is storage
// traffic for the OSS.
func (n *Node) Serve(req transport.Request, r transport.Responder) {
	switch {
	case req.Op == OpNodeHealth:
		buf, err := json.Marshal(NodeHealth{
			Role:      n.cfg.Role,
			Policy:    n.cfg.Policy,
			UptimeS:   time.Since(n.start).Seconds(),
			GoVersion: runtime.Version(),
			Obs:       n.obs != nil,
		})
		if err != nil {
			r.Reply(transport.Reply{Err: "node: health: " + err.Error()})
			return
		}
		r.Reply(transport.Reply{Payload: buf})
	case req.Op == OpObsDrain:
		var d ObsDrain
		if n.obs != nil {
			n.syncObsTransport()
			d.Events = n.obs.Tracer.Drain()
			d.Snapshot = n.obs.Metrics.Snapshot()
		}
		buf, err := json.Marshal(d)
		if err != nil {
			r.Reply(transport.Reply{Err: "node: obs drain: " + err.Error()})
			return
		}
		r.Reply(transport.Reply{Payload: buf})
	case req.Op == OpNodeStats:
		buf, err := json.Marshal(n.liveStats())
		if err != nil {
			r.Reply(transport.Reply{Err: "node: stats: " + err.Error()})
			return
		}
		r.Reply(transport.Reply{Payload: buf})
	case req.Op == OpGIFTWalk && n.coord != nil:
		n.coord.Handle(req, r.Reply)
	case req.Op >= 0xF0:
		r.Reply(transport.Reply{Err: fmt.Sprintf("node: no handler for control opcode %#x in role %s", req.Op, n.cfg.Role)})
	case n.srv != nil:
		n.srv.oss.Serve(req, r)
	default:
		r.Reply(transport.Reply{Err: "node: coordinator serves control traffic only"})
	}
}

// liveStats snapshots what is observable while serving (no device
// counters — those require a closed OSS and appear in Close's snapshot).
func (n *Node) liveStats() NodeStats {
	var st NodeStats
	if n.coord != nil {
		st = n.coord.Stats()
	} else {
		for _, k := range n.srv.oss.PendingJobs() {
			st.PendingRPCs += k
		}
		st.RejectedRPCs, st.ShedRPCs, st.OfferedBytes, st.GoodputBytes = n.srv.oss.AdmissionStats()
	}
	n.mu.Lock()
	st.Conns = len(n.conns)
	n.mu.Unlock()
	return n.identify(st)
}

// identify stamps a snapshot with who and where this node is.
func (n *Node) identify(st NodeStats) NodeStats {
	st.Role, st.Policy, st.Addr = n.cfg.Role, n.cfg.Policy, n.Addr()
	return st
}

// Obs exposes the node's observability sinks (nil when NodeConfig.Obs
// is off) — what cmd/adaptbf-node serves at -obs-addr.
func (n *Node) Obs() *obs.CellObs { return n.obs }

// syncObsTransport folds the coordinator Redialer's dial/retry counters
// into the metrics registry, adding only what accumulated since the
// previous sync so repeated drains and scrapes never double-count.
func (n *Node) syncObsTransport() {
	if n.obs == nil || n.obs.Metrics == nil || n.acoord == nil {
		return
	}
	st := n.acoord.Stats()
	n.mu.Lock()
	dDials, dRetries := st.Dials-n.obsDials, st.Retries-n.obsRetries
	n.obsDials, n.obsRetries = st.Dials, st.Retries
	n.mu.Unlock()
	if dDials > 0 {
		n.obs.Metrics.Counter(obs.MetricRedials).Add(dDials)
	}
	if dRetries > 0 {
		n.obs.Metrics.Counter(obs.MetricRetries).Add(dRetries)
	}
}

// Close gracefully drains the node: stop accepting, give open
// connections DrainTimeout to finish (then force-close them), stop the
// Server, and return the final stats snapshot — including the device
// counters only a closed OSS can report.
func (n *Node) Close() NodeStats {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.closing = true
		n.mu.Unlock()
		n.ln.Close()
		n.acceptWG.Wait()

		drained := make(chan struct{})
		go func() {
			n.connWG.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(n.cfg.DrainTimeout):
			n.mu.Lock()
			for c := range n.conns {
				c.Close()
			}
			n.mu.Unlock()
			<-drained
		}

		if n.coord != nil {
			n.final = n.identify(n.coord.Stats())
		} else {
			n.final = n.identify(n.srv.Stop())
		}
	})
	return n.final
}
