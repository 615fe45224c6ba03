// Command brokerd runs the Crayfish message broker as a standalone TCP
// daemon, so the input producer, the system under test, and the output
// consumer can run in separate processes the way the paper deploys them on
// separate VMs.
//
// Single-broker mode:
//
//	brokerd -addr 127.0.0.1:9092 -topics crayfish-in:32,crayfish-out:32
//
// Replicated-cluster mode — one brokerd process per node, each passed the
// same ordered peer list; the process listens on its own entry. Node 0 is
// the controller and consumer-group coordinator seat: it elects partition
// leaders, pushes metadata to the peers, and creates the -topics once
// every peer answers a ping. Metadata and replication ride the TCP wire
// protocol clients use — tagged length-prefixed frames, records in
// binary, control ops and errors as JSON (docs/CLUSTER.md "Wire
// protocol"):
//
//	brokerd -cluster -node-id 0 -peers 127.0.0.1:9092,127.0.0.1:9093,127.0.0.1:9094 \
//	        -replication-factor 3 -topics crayfish-in:32,crayfish-out:32
//	brokerd -cluster -node-id 1 -peers 127.0.0.1:9092,127.0.0.1:9093,127.0.0.1:9094
//	brokerd -cluster -node-id 2 -peers 127.0.0.1:9092,127.0.0.1:9093,127.0.0.1:9094
//
// With -metrics-addr, /metrics reports the node's replication state
// alongside the broker counters: broker.cluster.leader.<topic>-<partition>
// (who this node believes leads each partition — followers keep answering
// mid-failover) and broker.cluster.replica_lag; node 0 additionally
// reports broker.cluster.failovers and broker.cluster.leader_epoch
// (docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crayfish"
	"crayfish/internal/broker"
)

// controllerHeartbeat is node 0's liveness sweep interval. The in-process
// cluster default (1ms) assumes free calls; over real TCP each sweep is a
// ping per peer, so brokerd spaces them out — still fast enough that a
// dead leader is detected and replaced well under a second.
const controllerHeartbeat = 50 * time.Millisecond

// peerWait bounds how long a starting node waits for its peers to come
// up before giving up (cluster processes start in any order).
const peerWait = 30 * time.Second

// serveMetrics exposes a /metrics JSON snapshot plus the net/http/pprof
// profiling endpoints on addr, returning the bound address. Shared by
// brokerd and modelserver via copy (cmd packages stay self-contained).
func serveMetrics(addr string, reg *crayfish.TelemetryRegistry) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", crayfish.TelemetryHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	//lint:allow gorolifecycle metrics server lives for the process; the listener dies with it
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

// topicSpec is one parsed -topics entry.
type topicSpec struct {
	name       string
	partitions int
}

// parseTopics parses the -topics flag value, name:partitions[,...].
func parseTopics(s string) ([]topicSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []topicSpec
	for _, spec := range strings.Split(s, ",") {
		name, partsStr, ok := strings.Cut(strings.TrimSpace(spec), ":")
		if !ok {
			return nil, fmt.Errorf("bad topic spec %q (want name:partitions)", spec)
		}
		parts, err := strconv.Atoi(partsStr)
		if err != nil || parts <= 0 {
			return nil, fmt.Errorf("bad partition count in %q", spec)
		}
		out = append(out, topicSpec{name: name, partitions: parts})
	}
	return out, nil
}

// parsePeers parses the -peers flag value: an ordered comma-separated
// host:port list where position is node id. Every cluster process must
// be handed the same list — it is the cluster membership.
func parsePeers(s string, nodeID int) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-cluster needs -peers")
	}
	addrs := strings.Split(s, ",")
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if _, _, err := net.SplitHostPort(a); err != nil {
			return nil, fmt.Errorf("bad peer %q at position %d: %v", a, i, err)
		}
		addrs[i] = a
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("a cluster needs at least 2 peers, got %d", len(addrs))
	}
	if nodeID < 0 || nodeID >= len(addrs) {
		return nil, fmt.Errorf("-node-id %d out of range for %d peers", nodeID, len(addrs))
	}
	return addrs, nil
}

// dialPeerWait dials a peer's broker port, retrying until the process
// comes up or the wait budget runs out.
func dialPeerWait(addr string, wait time.Duration) (*broker.RemoteClient, error) {
	deadline := time.Now().Add(wait)
	for {
		rc, err := broker.Dial(addr, broker.WithCallTimeout(5*time.Second))
		if err == nil {
			return rc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("peer %s did not come up within %v: %v", addr, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// clusterNode is one wired-up cluster member: the served node, its peer
// links, and — on the controller seat — the control plane.
type clusterNode struct {
	node    *broker.Node
	srv     *broker.Server
	ctrl    *broker.Controller
	remotes []*broker.RemoteClient
}

// Close tears the member down in dependency order: control plane first
// (stop electing against a closing node), then the listener, the node,
// and the peer links.
func (cn *clusterNode) Close() {
	if cn.ctrl != nil {
		cn.ctrl.Close()
	}
	if err := cn.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "brokerd: shutdown: %v\n", err)
	}
	cn.node.Close()
	for _, rc := range cn.remotes {
		_ = rc.Close()
	}
}

// startCluster wires this process up as one node of a replicated
// cluster: serve the node on its -peers entry, link every peer (waiting
// for processes that have not started yet), and on node 0 build the
// controller and create the bootstrap topics.
func startCluster(nodeID int, peerAddrs []string, rf int, topics []topicSpec, reg *crayfish.TelemetryRegistry) (*clusterNode, error) {
	node, err := broker.NewNode(broker.NodeConfig{
		ID:     nodeID,
		Broker: broker.Config{Metrics: reg},
	})
	if err != nil {
		return nil, err
	}
	srv, err := broker.ServeNode(node, peerAddrs[nodeID])
	if err != nil {
		node.Close()
		return nil, err
	}
	cn := &clusterNode{node: node, srv: srv}
	fmt.Printf("brokerd %s listening on %s (cluster of %d, rf=%d)\n",
		node.Name(), srv.Addr(), len(peerAddrs), rf)

	// Link the peers. Processes start in any order, so each dial waits
	// for the remote listener; a peer that never appears is fatal — the
	// membership list says it should exist.
	peers := map[int]broker.ClusterPeer{nodeID: node}
	for id, addr := range peerAddrs {
		if id == nodeID {
			continue
		}
		rc, err := dialPeerWait(addr, peerWait)
		if err != nil {
			cn.Close()
			return nil, err
		}
		cn.remotes = append(cn.remotes, rc)
		node.SetPeer(id, rc)
		peers[id] = rc
		fmt.Printf("linked peer node-%d at %s\n", id, addr)
	}

	// Node 0 is the controller seat: build the control plane over the
	// same links, create the bootstrap topics (placement pushes the view
	// — and the topics — to every peer), then start the liveness sweep.
	if nodeID == 0 {
		ctrl, err := broker.NewController(broker.ControllerConfig{
			Peers:             peers,
			ReplicationFactor: rf,
			HeartbeatEvery:    controllerHeartbeat,
			Coordinator:       node.Broker(),
			Metrics:           reg,
		})
		if err != nil {
			cn.Close()
			return nil, err
		}
		node.AttachController(ctrl)
		cn.ctrl = ctrl
		for _, t := range topics {
			if err := ctrl.CreateTopic(t.name, t.partitions); err != nil {
				cn.Close()
				return nil, fmt.Errorf("create topic: %v", err)
			}
			fmt.Printf("created topic %s with %d partitions (rf=%d)\n", t.name, t.partitions, rf)
		}
		ctrl.Start()
	} else if len(topics) > 0 {
		fmt.Println("note: -topics is only honoured on the controller (node 0); ignoring")
	}
	return cn, nil
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9092", "listen address (single-broker mode; cluster mode listens on its -peers entry)")
		topics      = flag.String("topics", "", "topics to pre-create, as name:partitions[,name:partitions...]")
		lanMs       = flag.Float64("lan-latency-ms", 0, "injected per-operation LAN latency in milliseconds (0 = off)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (JSON telemetry) and /debug/pprof on this address (empty = off)")
		cluster     = flag.Bool("cluster", false, "run as one node of a replicated cluster (requires -node-id and -peers)")
		nodeID      = flag.Int("node-id", 0, "this node's id in the -peers list (cluster mode)")
		peersFlag   = flag.String("peers", "", "ordered comma-separated host:port list of every cluster node, position = node id (cluster mode)")
		rf          = flag.Int("replication-factor", 3, "replicas per partition, clamped to the node count (cluster mode)")
	)
	flag.Parse()

	var reg *crayfish.TelemetryRegistry
	if *metricsAddr != "" {
		reg = crayfish.NewTelemetry()
		bound, err := serveMetrics(*metricsAddr, reg)
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof)\n", bound)
	}
	_ = lanMs // the in-daemon broker already sits behind real TCP; keep flag for symmetry

	specs, err := parseTopics(*topics)
	if err != nil {
		fatalf("%v", err)
	}

	if *cluster {
		peerAddrs, err := parsePeers(*peersFlag, *nodeID)
		if err != nil {
			fatalf("%v", err)
		}
		cn, err := startCluster(*nodeID, peerAddrs, *rf, specs, reg)
		if err != nil {
			fatalf("%v", err)
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("shutting down")
		cn.Close()
		time.Sleep(50 * time.Millisecond)
		return
	}

	var b *crayfish.Broker
	if reg != nil {
		b = crayfish.NewBrokerTelemetry(reg)
	} else {
		b = crayfish.NewBroker()
	}
	for _, t := range specs {
		if err := b.CreateTopic(t.name, t.partitions); err != nil {
			fatalf("create topic: %v", err)
		}
		fmt.Printf("created topic %s with %d partitions\n", t.name, t.partitions)
	}
	srv, err := crayfish.ServeBroker(b, *addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("brokerd listening on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "brokerd: shutdown: %v\n", err)
	}
	time.Sleep(50 * time.Millisecond)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "brokerd: "+format+"\n", args...)
	os.Exit(2)
}
