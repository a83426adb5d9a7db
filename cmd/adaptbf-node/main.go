// Command adaptbf-node is one deployable process of a multi-process
// AdapTBF cell: a storage server (role oss) or a GIFT coordinator (role
// coord) serving the RPC transport over TCP, with optional deterministic
// fault injection on every accepted connection.
//
// On startup it prints one machine-parseable line:
//
//	ADDR 127.0.0.1:43721
//
// With -obs-addr it also binds an HTTP endpoint serving Prometheus-text
// /metrics and net/http/pprof under /debug/pprof/, printing the bound
// address the same way:
//
//	OBS 127.0.0.1:43722
//
// and on SIGTERM/SIGINT it drains gracefully — stops accepting, lets
// open connections finish (bounded by -drain), stops the policy
// machinery — and prints a final snapshot before exiting 0:
//
//	STATS {"role":"oss","served_rpcs":1234,...}
//
// The STATS line exists because device counters are only readable from a
// closed OSS: the spawner (harness.RemoteBackend) collects them from
// stdout at teardown, the one moment they exist.
//
// Typical OSS under the AdapTBF policy:
//
//	adaptbf-node -role oss -policy adaptbf -rate 500 -period 100ms \
//	    -nodes dd.n1=4,ior.n2=8 -listen 127.0.0.1:0
//
// A GIFT cell is one coordinator plus agents pointed at it:
//
//	adaptbf-node -role coord -period 100ms -listen 127.0.0.1:7000
//	adaptbf-node -role oss -policy gift -coord 127.0.0.1:7000 ...
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/obs"
	"adaptbf/internal/policy"
	"adaptbf/internal/transport"
)

func main() {
	var (
		role     = flag.String("role", "oss", "process role: oss or coord")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address (port 0 picks one; see the ADDR line)")
		polName  = flag.String("policy", "nobw", "bandwidth policy beside the OSS: "+policy.Flags())
		rate     = flag.Float64("rate", 500, "token capacity T_i in tokens/s")
		period   = flag.Duration("period", 100*time.Millisecond, "controller/coordinator decision epoch (OSS time)")
		depth    = flag.Float64("depth", 16, "TBF bucket depth")
		sfqDepth = flag.Int("sfq-depth", 1, "SFQ(D) dispatch depth (sfq policy)")
		speedup  = flag.Float64("speedup", 1, "clock acceleration factor")
		nodes    = flag.String("nodes", "", "job compute-node counts, e.g. dd.n1=4,ior.n2=8")
		coord    = flag.String("coord", "", "GIFT coordinator address (gift policy)")
		admit    = flag.String("admission", "", "admission policy in front of the OSS: always (default), token-bucket[:cap=64MiB,refill=256MiB], or deadline-queue[:limit=512,deadline=250ms]")
		faults   = flag.String("faults", "", "fault profile injected on accepted conns, e.g. latency=2ms,jitter=1ms,loss=0.1")
		seed     = flag.Uint64("fault-seed", 1, "seed for the fault profile's deterministic RNG")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-drain bound on shutdown")
		obsOn    = flag.Bool("obs", false, "enable observability: traces/metrics drained over the wire (opcode 0xF7)")
		obsAddr  = flag.String("obs-addr", "", "HTTP listen address serving Prometheus /metrics and /debug/pprof (implies -obs; see the OBS line)")

		devBPS      = flag.Float64("dev-bps", 0, "device streaming rate in bytes/s (0 = the default SSD-class target)")
		devOverhead = flag.Duration("dev-overhead", 0, "device per-RPC overhead (0 = default)")
		devPenalty  = flag.Duration("dev-penalty", 0, "device per-concurrent-stream penalty (0 = default)")
	)
	flag.Parse()

	fault, err := transport.ParseFault(*faults)
	if err != nil {
		log.Fatalf("adaptbf-node: %v", err)
	}
	nodeMap, err := parseNodes(*nodes)
	if err != nil {
		log.Fatalf("adaptbf-node: %v", err)
	}
	admCfg, err := admission.Parse(*admit)
	if err != nil {
		log.Fatalf("adaptbf-node: bad -admission: %v", err)
	}
	dev := device.Default()
	if *devBPS > 0 {
		dev.BytesPerSec = *devBPS
	}
	if *devOverhead > 0 {
		dev.PerRPCOverhead = *devOverhead
	}
	if *devPenalty > 0 {
		dev.ConcurrencyPenalty = *devPenalty
	}

	n, err := cluster.StartNode(cluster.NodeConfig{
		Role:   *role,
		Listen: *listen,
		OSS: cluster.OSSConfig{
			Device:      dev,
			BucketDepth: *depth,
			Speedup:     *speedup,
			Admission:   admCfg,
		},
		Policy:       *polName,
		MaxRate:      *rate,
		Period:       *period,
		SFQDepth:     *sfqDepth,
		Nodes:        nodeMap,
		CoordAddr:    *coord,
		Fault:        fault,
		FaultSeed:    *seed,
		DrainTimeout: *drain,
		Obs:          *obsOn || *obsAddr != "",
	})
	if err != nil {
		log.Fatalf("adaptbf-node: %v", err)
	}
	// The machine-parseable startup line: spawners read the bound address
	// from here when -listen used port 0.
	fmt.Printf("ADDR %s\n", n.Addr())

	if *obsAddr != "" {
		// Best-effort endpoint: an unserved scrape must never take the
		// storage path down with it, so HTTP errors only log.
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			log.Fatalf("adaptbf-node: -obs-addr: %v", err)
		}
		fmt.Printf("OBS %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, obs.Handler(n.Obs().Metrics)); err != nil {
				log.Printf("adaptbf-node: obs http: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	stats := n.Close()
	buf, err := stats.MarshalLine()
	if err != nil {
		log.Fatalf("adaptbf-node: final stats: %v", err)
	}
	fmt.Printf("STATS %s\n", buf)
}

// parseNodes parses "job=1,other=8" into the node-count map.
func parseNodes(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		id, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("bad -nodes field %q (want job=count)", field)
		}
		k, err := strconv.Atoi(val)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad node count in %q", field)
		}
		out[id] = k
	}
	return out, nil
}
