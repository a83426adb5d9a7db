package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/policy"
	"adaptbf/internal/transport"
)

// RemoteBackend runs cells as separate OS processes over TCP: per cell
// it spawns one adaptbf-node process per OSS (plus one coordinator
// process for GIFT), waits for each to answer its health probe, and
// drives the scenario's workload (runLiveCell) from in-harness job
// runners whose targets are reconnecting clients — so an OSS process
// crash mid-run is a transport error with a retry budget, not a wedged
// cell. This is the paper's deployment claim made literal: the
// decentralization property crosses a real process boundary and a real
// (if loopback) network.
//
// The node binary is built once per backend (go build adaptbf/cmd/
// adaptbf-node, resolved via the module root) unless NodeBin points at a
// prebuilt one. Faults apply on the node side of every connection
// (CellSpec.Faults.Net), and the crash/restart mode is realized here — a
// SIGKILLed node process and a respawn on the same address.
//
// Like ClusterBackend, results are OSS time (wall-clock × Speedup),
// inherently nondeterministic, and never fingerprinted. Device counters
// come from each node's STATS drain line — the only moment a node can
// report them — so a crashed-and-not-restarted node contributes zero
// device busy time.
type RemoteBackend struct {
	// NodeBin is a prebuilt adaptbf-node binary. Empty means build one
	// (cached per backend) from the enclosing module.
	NodeBin string
	// Device parameterizes each node's backing store. Zero means
	// device.Default().
	Device device.Params
	// Speedup accelerates modeled device and controller clocks. Default 1.
	Speedup float64
	// Logf, when set, receives readiness lines as nodes answer their
	// health probe (role, policy, Go version, obs status) — the
	// spawner's view of what it actually addressed. Calls may come from
	// concurrent cells; plain log.Printf / testing.T.Logf are fine.
	Logf func(format string, args ...any)

	buildOnce sync.Once
	builtBin  string
	buildErr  error
}

// Name reports "remote".
func (b *RemoteBackend) Name() string { return "remote" }

const (
	// remoteReadyTimeout bounds how long a spawned node gets to print its
	// ADDR line and answer its first health probe.
	remoteReadyTimeout = 15 * time.Second
	// remoteNodeDrain is each node's own bound on waiting for open
	// connections at shutdown (its -drain flag); remoteStopTimeout is how
	// long the harness waits for an interrupted node to exit.
	remoteNodeDrain   = 5 * time.Second
	remoteStopTimeout = 8 * time.Second
	// remoteRPCTimeout bounds each RPC attempt against a node, and
	// remoteRetries is the per-RPC transport-failure retry budget (raised
	// to cover a crash/restart gap).
	remoteRPCTimeout = 15 * time.Second
	remoteRetries    = 2
)

// bin resolves the node binary, building it once if needed.
func (b *RemoteBackend) bin() (string, error) {
	if b.NodeBin != "" {
		return b.NodeBin, nil
	}
	b.buildOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			b.buildErr = err
			return
		}
		dir, err := os.MkdirTemp("", "adaptbf-node-")
		if err != nil {
			b.buildErr = err
			return
		}
		out := filepath.Join(dir, "adaptbf-node")
		cmd := exec.Command("go", "build", "-o", out, "./cmd/adaptbf-node")
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			b.buildErr = fmt.Errorf("harness: building adaptbf-node: %v\n%s", err, msg)
			return
		}
		b.builtBin = out
	})
	if b.buildErr != nil {
		return "", b.buildErr
	}
	return b.builtBin, nil
}

// moduleRoot locates the enclosing Go module (where ./cmd/adaptbf-node
// resolves) from the process working directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("harness: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("harness: not inside a Go module; set RemoteBackend.NodeBin to a prebuilt adaptbf-node")
	}
	return filepath.Dir(gomod), nil
}

// A nodeProc is one spawned adaptbf-node process and its parsed stdout.
type nodeProc struct {
	cmd    *exec.Cmd
	addr   string
	health cluster.NodeHealth     // the readiness probe's answer
	stats  chan cluster.NodeStats // buffered 1; fed by the STATS drain line
	exited chan struct{}          // closed when the process is reaped
	stderr bytes.Buffer
}

// spawnNode starts the binary, parses the ADDR line, and health-checks
// the node before returning it.
func spawnNode(bin string, args []string) (*nodeProc, error) {
	p := &nodeProc{
		cmd:    exec.Command(bin, args...),
		stats:  make(chan cluster.NodeStats, 1),
		exited: make(chan struct{}),
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "ADDR "); ok {
				select {
				case addrCh <- a:
				default:
				}
			} else if s, ok := strings.CutPrefix(line, "STATS "); ok {
				if st, err := cluster.ParseNodeStats([]byte(s)); err == nil {
					select {
					case p.stats <- st:
					default:
					}
				}
			}
		}
		p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrCh:
	case <-p.exited:
		return nil, fmt.Errorf("harness: adaptbf-node exited at startup: %s", p.stderr.String())
	case <-time.After(remoteReadyTimeout):
		p.kill()
		return nil, fmt.Errorf("harness: adaptbf-node printed no ADDR line within %v", remoteReadyTimeout)
	}
	health, err := waitHealthy(p.addr)
	if err != nil {
		p.kill()
		return nil, err
	}
	p.health = health
	return p, nil
}

// waitHealthy probes the node's health opcode until it answers, and
// returns the parsed NodeHealth — the node's own account of its role,
// policy, build, and obs status. A node that does not speak this
// process's wire version never will answer: handshakeStrikes probes in a
// row refused that way end the wait, with both versions in the error,
// not remoteReadyTimeout. (One is not proof: a node of this build that
// dies under the probe's first frame hangs up just as wordlessly.)
func waitHealthy(addr string) (cluster.NodeHealth, error) {
	const handshakeStrikes = 3
	deadline := time.Now().Add(remoteReadyTimeout)
	r := &transport.Redialer{Network: "tcp", Addr: addr, Attempts: 1}
	defer r.Close()
	var lastErr error
	strikes := 0
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rep, err := r.CallCtx(ctx, transport.Request{Op: cluster.OpNodeHealth})
		cancel()
		if err == nil {
			h, perr := cluster.ParseNodeHealth(rep.Payload)
			if perr != nil {
				return h, fmt.Errorf("harness: node %s answered health with an unparseable payload: %v", addr, perr)
			}
			return h, nil
		}
		if !errors.Is(err, transport.ErrHandshake) {
			strikes = 0
		} else if strikes++; strikes == handshakeStrikes {
			return cluster.NodeHealth{}, fmt.Errorf("harness: node %s is not a peer of this build (is RemoteBackend.NodeBin stale?): %w", addr, err)
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return cluster.NodeHealth{}, fmt.Errorf("harness: node %s never became healthy: %v", addr, lastErr)
}

// terminate interrupts the node (triggering its graceful drain), reaps it
// — killing it if the drain outlasts remoteStopTimeout — and returns the
// STATS snapshot it printed on the way out: zero when it printed none (it
// crashed, or was killed).
func (p *nodeProc) terminate() cluster.NodeStats {
	p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.exited:
	case <-time.After(remoteStopTimeout):
		p.kill()
	}
	select {
	case st := <-p.stats: // scanned before the reader saw EOF and reaped
		return st
	default:
		return cluster.NodeStats{}
	}
}

func (p *nodeProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// RunCell executes one cell as separate node processes over TCP.
func (b *RemoteBackend) RunCell(ctx context.Context, spec CellSpec) (CellOutcome, error) {
	oss := cluster.OSSConfig{Device: b.Device, Speedup: b.Speedup}
	return runLiveCell(ctx, spec, oss, &procPlacement{b: b, spec: spec, addrs: make(map[int]string)})
}

// procPlacement runs a cell's servers as adaptbf-node processes on
// loopback TCP.
type procPlacement struct {
	b     *RemoteBackend
	spec  CellSpec
	coord *nodeProc

	procs []*nodeProc    // every process ever spawned, for release
	addrs map[int]string // target index → the address its clients dial
}

// spawn starts one node with the flags every role takes, and logs its
// readiness. faultConn keeps each node's fault stream distinct.
func (p *procPlacement) spawn(role, listen string, faultConn int, more ...string) (*nodeProc, error) {
	bin, err := p.b.bin()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-role", role,
		"-listen", listen,
		"-period", p.spec.Period.String(),
		"-drain", remoteNodeDrain.String(),
	}
	if net := p.spec.Faults.Net; !net.IsZero() {
		args = append(args,
			"-faults", net.String(),
			"-fault-seed", strconv.FormatUint(faultSeed(p.spec.Cell.Seed, faultConn), 10))
	}
	proc, err := spawnNode(bin, append(args, more...))
	if err != nil {
		return nil, err
	}
	p.procs = append(p.procs, proc)
	if h := proc.health; p.b.Logf != nil {
		p.b.Logf("harness: node %s ready: role=%s policy=%s go=%s obs=%v uptime=%.2fs",
			proc.addr, h.Role, h.Policy, h.GoVersion, h.Obs, h.UptimeS)
	}
	return proc, nil
}

func (p *procPlacement) startCoord() (err error) {
	p.coord, err = p.spawn("coord", "127.0.0.1:0", 0)
	return err
}

// startTarget spells cfg as adaptbf-node flags. A restarted target is
// pinned to the address the crashed one held.
func (p *procPlacement) startTarget(i int, cfg cluster.ServerConfig) (liveTarget, error) {
	desc, _ := policy.Lookup(cfg.Policy) // runLiveCell vetted it
	float := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	args := []string{
		"-policy", desc.Flag,
		"-rate", float(cfg.MaxRate),
		"-depth", float(cfg.OSS.BucketDepth),
		"-speedup", float(cfg.OSS.Speedup),
		"-sfq-depth", strconv.Itoa(cfg.SFQDepth),
		"-dev-bps", float(cfg.OSS.Device.BytesPerSec),
		"-dev-overhead", cfg.OSS.Device.PerRPCOverhead.String(),
		"-dev-penalty", cfg.OSS.Device.ConcurrencyPenalty.String(),
	}
	if cfg.OSS.Obs != nil {
		args = append(args, "-obs")
	}
	nodes := make([]string, 0, len(cfg.Nodes))
	for id, k := range cfg.Nodes {
		nodes = append(nodes, id+"="+strconv.Itoa(k))
	}
	sort.Strings(nodes)
	args = append(args, "-nodes", strings.Join(nodes, ","))
	if !cfg.OSS.Admission.IsAlways() {
		args = append(args, "-admission", cfg.OSS.Admission.String())
	}
	if p.coord != nil {
		args = append(args, "-coord", p.coord.addr)
	}
	listen := "127.0.0.1:0"
	if held, ok := p.addrs[i]; ok {
		listen = held
	}
	proc, err := p.spawn("oss", listen, 1+i, args...)
	if err != nil {
		return liveTarget{}, err
	}
	p.addrs[i] = proc.addr
	return liveTarget{
		// Redialers reconnect across node restarts; the per-call retry
		// budget lives in the runner, so internal attempts stay at 1.
		dial: func() transport.Caller {
			return &transport.Redialer{Network: "tcp", Addr: proc.addr, Attempts: 1}
		},
		stop:     proc.terminate,
		crash:    proc.kill,
		drainObs: func() (cluster.ObsDrain, bool) { return drainNodeObs(proc.addr, i) },
	}, nil
}

// stopCoord drains the coordinator process: the bank's final centralized
// state comes from its STATS line.
func (p *procPlacement) stopCoord() cluster.NodeStats { return p.coord.terminate() }

// budget: a bounded attempt and a few retries. A crash/restart cell
// needs the backoff window to span the dead gap, or every in-flight job
// fails before the respawn comes up.
func (p *procPlacement) budget() (time.Duration, int, time.Duration) {
	retries, backoff := remoteRetries, 25*time.Millisecond
	if f := p.spec.Faults; f.CrashOSS && f.RestartAfter > 0 {
		need := f.RestartAfter + 2*time.Second
		backoff = 250 * time.Millisecond
		for window := backoff * ((1 << retries) - 1); window < need && retries < 10; retries++ {
			window = backoff * ((1 << (retries + 1)) - 1)
		}
	}
	return remoteRPCTimeout, retries, backoff
}

func (p *procPlacement) release() {
	for _, proc := range p.procs {
		select {
		case <-proc.exited:
		default:
			proc.kill()
		}
	}
}

// drainNodeObs pulls one node's accumulated spans and cumulative metrics
// snapshot over the wire (opcode 0xF7). Each node is its own process,
// with trace thread ids and span ids scoped to itself; events are
// relabeled onto the cell's per-node threads before the caller folds
// them. Best-effort: a node that crashed and never restarted took its
// spans down with it, exactly like a real process.
func drainNodeObs(addr string, node int) (cluster.ObsDrain, bool) {
	r := &transport.Redialer{Network: "tcp", Addr: addr, Attempts: 1}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := r.CallCtx(ctx, transport.Request{Op: cluster.OpObsDrain})
	if err != nil {
		return cluster.ObsDrain{}, false
	}
	var d cluster.ObsDrain
	if err := json.Unmarshal(rep.Payload, &d); err != nil {
		return cluster.ObsDrain{}, false
	}
	for i := range d.Events {
		// Data spans move to thread `node`, control spans to
		// ControllerTID+node; async ids get the node in their high bits
		// (the node's own OSS runs at tid 0, leaving them clear).
		d.Events[i].TID += int64(node)
		if d.Events[i].ID != 0 {
			d.Events[i].ID |= uint64(node) << 32
		}
	}
	return d, true
}
