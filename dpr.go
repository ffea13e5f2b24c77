// Package dpr is the public API of the distributed pagerank library,
// a full reproduction of "Distributed Pagerank for P2P Systems"
// (Sankaralingam, Sethumadhavan, Browne; HPDC 2003).
//
// The library computes Google-style pageranks for documents spread
// across a peer-to-peer network with no central server: every peer
// pushes rank-update messages along its documents' out-links until the
// chaotic (asynchronous) iteration quiesces. Documents and peers can
// come and go; ranks update incrementally. A pagerank-aware
// incremental keyword search cuts multi-word query traffic by roughly
// an order of magnitude.
//
// Quick start:
//
//	g, _ := dpr.GenerateWebGraph(10000, 42)
//	res, _ := dpr.ComputePageRank(g, dpr.Options{Peers: 500})
//	top := dpr.TopDocuments(res.Ranks, 10)
//
// The facade wraps the building blocks in internal/: the power-law
// graph generator (internal/graph), the peer substrate (internal/p2p,
// internal/dht), the distributed engines (internal/core), the
// centralized baseline (internal/solver), and keyword search
// (internal/search, internal/corpus). Experiment reproduction drivers
// live in internal/experiments and are exposed through cmd/dprbench.
package dpr

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// Graph is a directed document-link graph. Construct one with
// GenerateWebGraph, GraphFromLinks or LoadGraph.
type Graph = graph.Graph

// NodeID identifies a document within a Graph.
type NodeID = graph.NodeID

// GenerateWebGraph synthesizes a document graph with web-like
// (power-law) link structure: in-degree exponent 2.1, out-degree
// exponent 2.4, per Broder et al.'s web measurements adopted by the
// paper.
func GenerateWebGraph(numDocs int, seed uint64) (*Graph, error) {
	return graph.GeneratePowerLaw(graph.DefaultPowerLawConfig(numDocs, seed))
}

// GraphFromLinks builds a graph from explicit adjacency: adj[i] lists
// the documents that document i links to.
func GraphFromLinks(adj [][]NodeID) *Graph { return graph.FromAdjacency(adj) }

// LoadGraph reads a graph saved with SaveGraph.
func LoadGraph(path string) (*Graph, error) { return graph.LoadBinary(path) }

// SaveGraph writes a graph in the library's binary format.
func SaveGraph(g *Graph, path string) error { return g.SaveBinary(path) }

// Options configures a distributed pagerank computation.
type Options struct {
	// Peers is the number of peers documents are spread over.
	// Default 500, the paper's simulation size.
	Peers int

	// Damping is the pagerank damping factor d. Default 0.85.
	Damping float64

	// Epsilon is the relative-error threshold below which a document
	// stops sending update messages. Default 1e-3, the paper's
	// recommended operating point (<1% rank error, low traffic).
	Epsilon float64

	// Availability keeps this fraction of peers online each pass
	// (peers churn randomly between passes). Default 1.0.
	Availability float64

	// MaxPasses caps each pass-engine Run. Default 100000.
	MaxPasses int

	// Workers parallelizes each pass across goroutines (0/1 serial,
	// negative = all CPUs). Results are identical for any setting.
	Workers int

	// Seed drives document placement and churn. Default 1.
	Seed uint64

	// RetryBase and RetryMax bound the wire layer's reconnect/resend
	// backoff (TCP deployments only): failed deliveries are
	// retried after RetryBase, doubling per consecutive failure up to
	// RetryMax, with jitter. Zero values pick the library defaults
	// (5ms base, 250ms cap).
	RetryBase time.Duration
	RetryMax  time.Duration

	// Heartbeat enables the TCP cluster's partition-tolerant failure
	// detection: every live peer pings the others each Heartbeat
	// interval and gossips which peers it currently suspects. A peer is
	// only evicted once a majority of live peers concurs — a crashed
	// peer's documents then migrate to its ring successor, while a
	// live-but-partitioned peer is fenced and reconciled back out when
	// the partition heals, so a minority network segment can never
	// split-brain-evict the majority. Zero (the default) disables
	// automatic failure detection; crashed peers then wait for an
	// explicit Restart or Leave.
	Heartbeat time.Duration

	// SuspectAfter is the number of consecutive missed heartbeats
	// before one peer SUSPECTS another. Since the quorum-eviction
	// change a single vantage's suspicion no longer evicts by itself;
	// it is that peer's vote, and eviction waits for a live-peer
	// majority to agree. Zero picks the default of 3.
	SuspectAfter int

	// DebugAddr, when non-empty, starts an HTTP debug listener on the
	// TCP cluster serving /metrics (plain-text exposition of the
	// telemetry registry), /trace (the convergence event ring as JSON)
	// and /debug/pprof. Use ":0" for an ephemeral port and read the
	// bound address back with TCPCluster.DebugAddr. Empty (the
	// default) disables the listener.
	DebugAddr string

	// Teleport personalizes the pagerank (topic-sensitive pagerank):
	// document i's share of the teleport mass is Teleport[i] /
	// sum(Teleport). Nil means the classic uniform teleport. One
	// non-negative weight per document.
	Teleport []float64
}

func (o Options) withDefaults() Options {
	if o.Peers == 0 {
		o.Peers = 500
	}
	if o.Availability == 0 {
		o.Availability = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 100000
	}
	return o
}

// Result reports a distributed pagerank computation.
type Result struct {
	// Ranks holds every document's pagerank, indexed by NodeID.
	Ranks []float64

	// Passes is the number of simulation passes.
	Passes int

	// NetworkMessages counts rank updates that crossed peer
	// boundaries; LocalUpdates counts free same-peer updates.
	NetworkMessages int64
	LocalUpdates    int64

	Converged bool
}

// place spreads g's documents over a fresh network of opt.Peers peers
// and returns it with the engine options opt describes: the one
// Options conversion behind ComputePageRank, NewSession and
// NewDynamicSession. opt has its defaults applied.
func (o Options) place(g *Graph) (*p2p.Network, core.Options, error) {
	if o.Peers < 1 {
		return nil, core.Options{}, fmt.Errorf("dpr: Peers %d < 1", o.Peers)
	}
	net := p2p.NewNetwork(o.Peers)
	net.AssignRandom(g, rng.New(o.Seed))
	return net, core.Options{
		Damping: o.Damping, Epsilon: o.Epsilon,
		MaxPass: o.MaxPasses, Teleport: o.Teleport, Workers: o.Workers,
	}, nil
}

// ComputePageRank runs the distributed pagerank computation over a
// fresh random placement of g's documents onto peers.
func ComputePageRank(g *Graph, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if opt.Availability <= 0 || opt.Availability > 1 {
		return Result{}, fmt.Errorf("dpr: Availability %v outside (0,1]", opt.Availability)
	}
	net, coreOpt, err := opt.place(g)
	if err != nil {
		return Result{}, err
	}
	var churn *p2p.Churn
	if opt.Availability < 1 {
		churn, err = p2p.NewChurn(net, opt.Availability, rng.New(opt.Seed+1))
		if err != nil {
			return Result{}, err
		}
	}
	e, err := core.NewPassEngine(g, net, churn, coreOpt)
	if err != nil {
		return Result{}, err
	}
	return toResult(e.Run()), nil
}

func toResult(r core.Result) Result {
	return Result{
		Ranks:           r.Ranks,
		Passes:          r.Passes,
		NetworkMessages: r.Counters.InterPeerMsgs,
		LocalUpdates:    r.Counters.IntraPeerMsgs,
		Converged:       r.Converged,
	}
}

// CentralizedPageRank computes the reference ranks R_c with a
// conventional synchronous solver, the paper's quality baseline.
func CentralizedPageRank(g *Graph, damping float64) ([]float64, error) {
	res, err := solver.Power(g, solver.Config{Damping: damping, Tol: 1e-13, MaxIters: 2000})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("dpr: centralized solver did not converge")
	}
	return res.Ranks, nil
}

// DocRank pairs a document with its pagerank.
type DocRank struct {
	Doc  NodeID
	Rank float64
}

// TopDocuments returns the k highest-ranked documents, descending.
func TopDocuments(ranks []float64, k int) []DocRank {
	out := make([]DocRank, len(ranks))
	for i, r := range ranks {
		out[i] = DocRank{Doc: NodeID(i), Rank: r}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Rank != out[b].Rank {
			return out[a].Rank > out[b].Rank
		}
		return out[a].Doc < out[b].Doc
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// Session is a long-lived distributed computation that documents can
// be inserted into and removed from, the paper's section 3 dynamic
// behaviour: ranks re-converge incrementally after each change with no
// global recompute.
type Session struct {
	engine *core.PassEngine
	net    *p2p.Network
	g      *Graph
}

// NewSession places g's documents on peers and converges the initial
// ranks.
func NewSession(g *Graph, opt Options) (*Session, error) {
	opt = opt.withDefaults()
	net, coreOpt, err := opt.place(g)
	if err != nil {
		return nil, err
	}
	e, err := core.NewPassEngine(g, net, nil, coreOpt)
	if err != nil {
		return nil, err
	}
	res := e.Run()
	if !res.Converged {
		return nil, fmt.Errorf("dpr: initial computation did not converge in %d passes", res.Passes)
	}
	return &Session{engine: e, net: net, g: g}, nil
}

// Ranks returns the current pageranks (live view; copy to keep a
// snapshot across further changes).
func (s *Session) Ranks() []float64 { return s.engine.Ranks() }

// InsertDocument integrates a new document with the given out-links,
// hosted on peer onPeer (modulo the peer count), and re-converges.
func (s *Session) InsertDocument(onPeer int, outlinks []NodeID) error {
	peer := p2p.PeerID(onPeer % s.net.NumPeers())
	if err := s.engine.InsertDoc(peer, outlinks); err != nil {
		return err
	}
	return s.reconverge()
}

// RemoveDocument deletes a document and re-converges.
func (s *Session) RemoveDocument(d NodeID) error {
	if err := s.engine.RemoveDoc(d); err != nil {
		return err
	}
	return s.reconverge()
}

func (s *Session) reconverge() error {
	res := s.engine.Run()
	if !res.Converged {
		return fmt.Errorf("dpr: re-convergence incomplete after %d passes", res.Passes)
	}
	return nil
}

// NetworkMessages reports total cross-peer updates so far.
func (s *Session) NetworkMessages() int64 { return s.engine.Counters().InterPeerMsgs }

// Passes reports total passes executed so far.
func (s *Session) Passes() int { return s.engine.Pass() }

// Checkpoint persists the session's converged state so a restart can
// resume from the last fixed point instead of recomputing.
func (s *Session) Checkpoint(w io.Writer) error { return s.engine.WriteCheckpoint(w) }

// Restore loads a checkpoint written by Checkpoint into this session
// (same graph, same damping) and re-converges: restoring under a
// tighter Epsilon resumes refinement from the stored state.
func (s *Session) Restore(r io.Reader) error {
	if err := s.engine.RestoreCheckpoint(r); err != nil {
		return err
	}
	s.engine.FlushPending()
	return s.reconverge()
}
