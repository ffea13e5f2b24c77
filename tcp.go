package dpr

import (
	"fmt"
	"time"

	"dpr/internal/wire"
)

// TCPResult reports a computation executed over real TCP sockets.
type TCPResult struct {
	Ranks    []float64
	Messages uint64        // update messages shipped between peers
	Probes   int           // termination-detector probe rounds
	Elapsed  time.Duration // wall-clock time to quiescence

	// Fault-tolerance accounting (zero on a fault-free run).
	Retries      uint64 // frame transmissions past the first attempt
	Reconnects   uint64 // successful re-dials after a connection loss
	Redeliveries uint64 // frames acknowledged after more than one attempt

	// Membership accounting (zero on a static-membership run).
	Joins      uint64 // peers that joined mid-computation
	Leaves     uint64 // peers that left permanently (manual or evicted)
	Migrated   uint64 // documents re-homed by joins and leaves
	Forwarded  uint64 // misrouted updates rerouted to the current owner
	Misdropped uint64 // updates with no resolvable owner (should be 0)

	// Partition-tolerance accounting (zero without network splits).
	EvictionsQuorum  uint64 // evictions confirmed by a live-peer majority
	EvictionsRefused uint64 // suspicions parked for lack of a quorum
	EpochRejected    uint64 // frames nacked for carrying a stale ownership epoch
}

func fromClusterResult(res wire.ClusterResult) TCPResult {
	return TCPResult{
		Ranks:            res.Ranks,
		Messages:         res.Messages,
		Probes:           res.Probes,
		Elapsed:          res.Elapsed,
		Retries:          res.Retries,
		Reconnects:       res.Reconnects,
		Redeliveries:     res.Redeliveries,
		Joins:            res.Joins,
		Leaves:           res.Leaves,
		Migrated:         res.Migrated,
		Forwarded:        res.Forwarded,
		Misdropped:       res.Misdropped,
		EvictionsQuorum:  res.EvictionsQuorum,
		EvictionsRefused: res.EvictionsRefused,
		EpochRejected:    res.EpochRejected,
	}
}

// clusterConfig converts o (defaults applied) for the TCP cluster,
// whose peers rank with the uniform teleport and churn only by Kill,
// Restart, Leave and Join.
func (o Options) clusterConfig() (wire.ClusterConfig, error) {
	if o.Teleport != nil {
		return wire.ClusterConfig{}, fmt.Errorf("dpr: the TCP cluster cannot use Teleport")
	}
	if o.Availability != 1 {
		return wire.ClusterConfig{}, fmt.Errorf("dpr: the TCP cluster has no churn model: Availability %v must be 1", o.Availability)
	}
	return wire.ClusterConfig{
		Peers:        o.Peers,
		Damping:      o.Damping,
		Epsilon:      o.Epsilon,
		Seed:         o.Seed,
		Heartbeat:    o.Heartbeat,
		SuspectAfter: o.SuspectAfter,
		DebugAddr:    o.DebugAddr,
	}, nil
}

// ComputePageRankOverTCP runs the distributed computation over real
// TCP connections on localhost: one listener per peer and binary update
// batches on the wire. The cluster runs in this process and reads its
// peers' update counters and ranks there: it stops once two successive
// reads show every shipped update folded. This is the paper's closing proposal — web servers
// collectively ranking the documents they host — executed for real
// rather than simulated. timeout bounds the wait for quiescence.
//
// The wire layer implements the paper's store-and-retry protocol:
// updates bound for an unreachable peer are coalesced in a sender-side
// retry queue and redelivered (with reconnect backoff and exactly-once
// folding) when the peer is reachable again, so connection loss never
// corrupts the final ranks. The backoff is fixed: 5ms after a failure,
// doubling per consecutive failure up to 250ms, with jitter.
func ComputePageRankOverTCP(g *Graph, opt Options, timeout time.Duration) (TCPResult, error) {
	cfg, err := opt.withDefaults().clusterConfig()
	if err != nil {
		return TCPResult{}, err
	}
	cluster, err := wire.NewCluster(g, cfg)
	if err != nil {
		return TCPResult{}, err
	}
	defer cluster.Close()
	res, err := cluster.Run(timeout)
	if err != nil {
		return TCPResult{}, err
	}
	return fromClusterResult(res), nil
}

// TCPCluster is a handle on a running TCP deployment that exposes the
// paper's dynamic-network operations: individual peers can be crashed
// (Kill) and later rejoined from their checkpoint at a fresh address
// (Restart) while the computation keeps running — update messages
// destined to the crashed peer wait in their senders' retry queues and
// are redelivered once it returns, so the final ranks are unaffected.
type TCPCluster struct {
	c *wire.Cluster
}

// NewTCPCluster starts opt.Peers TCP peers over g without beginning
// the computation; call Run to execute it.
func NewTCPCluster(g *Graph, opt Options) (*TCPCluster, error) {
	cfg, err := opt.withDefaults().clusterConfig()
	if err != nil {
		return nil, err
	}
	c, err := wire.NewCluster(g, cfg)
	if err != nil {
		return nil, err
	}
	return &TCPCluster{c: c}, nil
}

// Run executes the computation to quiescence, collects the ranks and
// shuts the cluster down. Kill/Restart may be invoked concurrently.
func (tc *TCPCluster) Run(timeout time.Duration) (TCPResult, error) {
	res, err := tc.c.Run(timeout)
	if err != nil {
		return TCPResult{}, err
	}
	return fromClusterResult(res), nil
}

// Kill crashes one peer, checkpointing its durable state inside the
// cluster.
func (tc *TCPCluster) Kill(peer int) error { return tc.c.Kill(peer) }

// Restart rejoins a crashed peer from its checkpoint at a new address.
func (tc *TCPCluster) Restart(peer int) error { return tc.c.Restart(peer) }

// Leave removes a peer permanently: its document range, ranks, dedup
// state and parked updates migrate to the DHT ring successor, the
// address tables are repushed, and in-flight updates are rerouted.
// Works on both live and crashed peers; the slot is never reused.
func (tc *TCPCluster) Leave(peer int) error { return tc.c.Leave(peer) }

// Join adds a fresh peer mid-computation: it takes over its key range
// from the current owners (live peers shed state directly, crashed
// ones via checkpoint surgery) and starts serving immediately. Returns
// the new peer's slot index.
func (tc *TCPCluster) Join() (int, error) { return tc.c.Join() }

// NumPeers returns the number of slots ever allocated (departed peers
// included; slots are not reused).
func (tc *TCPCluster) NumPeers() int { return tc.c.NumPeers() }

// NumLive returns the number of peers currently in the membership.
func (tc *TCPCluster) NumLive() int { return tc.c.NumLive() }

// DebugAddr returns the bound address of the cluster's debug listener
// ("" when Options.DebugAddr was empty). The listener serves /metrics,
// /trace and /debug/pprof while the cluster is alive.
func (tc *TCPCluster) DebugAddr() string { return tc.c.DebugAddr() }

// TelemetryText renders the cluster's merged telemetry registry in the
// plain-text exposition format served at /metrics. It stays valid
// after Run has shut the cluster down, so a caller can dump the final
// counters post-hoc.
func (tc *TCPCluster) TelemetryText() string { return tc.c.TelemetryText() }

// Close stops every peer.
func (tc *TCPCluster) Close() { tc.c.Close() }
