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
	"slices"
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
	// ComputePageRank only: NewSession and the TCP entry points refuse
	// any other value.
	Availability float64

	// MaxPasses caps each pass-engine Run. Default 100000.
	MaxPasses int

	// Workers parallelizes each pass across goroutines (0/1 serial,
	// negative = all CPUs). Results are identical for any setting.
	Workers int

	// Seed drives document placement and churn. Default 1.
	Seed uint64

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
	// non-negative weight per document. ComputePageRank only:
	// NewSession and the TCP entry points refuse it.
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
// Options conversion behind ComputePageRank and NewSession. opt has
// its defaults applied.
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

// TopDocuments returns the k highest-ranked documents, descending;
// none for k <= 0.
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
	return out[:min(max(k, 0), len(out))]
}

// Session is a long-lived distributed computation whose document
// topology evolves, the paper's section 3 dynamic behaviour: documents
// are inserted (and can later receive links), links are added and
// removed as documents are edited, and documents are deleted. After
// every change the ranks re-converge incrementally with no global
// recompute.
type Session struct {
	m      *graph.Mutable
	engine *core.PassEngine
	net    *p2p.Network
	r      *rng.Rand // draws each inserted document's peer
}

// NewSession places g's documents on peers and converges the initial
// ranks; g may have no documents. The network stays fully available,
// and the teleport stays uniform: a personalization is defined over a
// fixed document set.
func NewSession(g *Graph, opt Options) (*Session, error) {
	opt = opt.withDefaults()
	if opt.Teleport != nil {
		return nil, fmt.Errorf("dpr: a Session cannot use Teleport (its document set grows)")
	}
	if opt.Availability != 1 {
		return nil, fmt.Errorf("dpr: a Session has no churn: Availability %v must be 1", opt.Availability)
	}
	net, coreOpt, err := opt.place(g)
	if err != nil {
		return nil, err
	}
	m := graph.NewMutable(g)
	e, err := core.NewPassEngine(m, net, nil, coreOpt)
	if err != nil {
		return nil, err
	}
	s := &Session{m: m, engine: e, net: net, r: rng.New(opt.Seed + 7)}
	if err := s.reconverge(); err != nil {
		return nil, err
	}
	return s, nil
}

// Ranks returns the current pageranks (live view; copy to keep a
// snapshot across further changes).
func (s *Session) Ranks() []float64 { return s.engine.Ranks() }

// NumDocuments returns the current topology size (including removed
// documents, whose ranks are zero).
func (s *Session) NumDocuments() int { return s.m.NumNodes() }

// Snapshot freezes the current topology as an immutable Graph, e.g.
// to compare against the centralized solver.
func (s *Session) Snapshot() *Graph { return s.m.Snapshot() }

// InsertDocument adds a new document with the given out-links on a
// peer drawn from the session's seed, and re-converges (section 3.1).
// The returned id can be linked to by later AddLink calls.
func (s *Session) InsertDocument(outlinks []NodeID) (NodeID, error) {
	id, err := s.engine.InsertDocument(outlinks, p2p.PeerID(s.r.Intn(s.net.NumPeers())))
	if err != nil {
		return 0, err
	}
	return id, s.reconverge()
}

// AddLink records that document from was edited to link to document
// to, and re-converges. Adding an existing link is a no-op.
func (s *Session) AddLink(from, to NodeID) error {
	return s.relink(from, func(links []NodeID) []NodeID { return append(links, to) })
}

// RemoveLink deletes the link from -> to and re-converges. Removing a
// non-existent link is a no-op.
func (s *Session) RemoveLink(from, to NodeID) error {
	return s.relink(from, func(links []NodeID) []NodeID {
		return slices.DeleteFunc(links, func(t NodeID) bool { return t == to })
	})
}

// relink sets from's out-links to an edited copy of them.
func (s *Session) relink(from NodeID, edit func([]NodeID) []NodeID) error {
	if from < 0 || int(from) >= s.m.NumNodes() {
		return fmt.Errorf("dpr: document %d is not in the session", from)
	}
	if err := s.engine.SetOutLinks(from, edit(slices.Clone(s.m.OutLinks(from)))); err != nil {
		return err
	}
	return s.reconverge()
}

// RemoveDocument deletes a document, its row and its column (section
// 3.1): its contributions are retracted, the documents linking to it
// drop the link, its rank drops to zero, and the ranks re-converge.
func (s *Session) RemoveDocument(d NodeID) error {
	if err := s.engine.RemoveDocument(d); err != nil {
		return err
	}
	return s.reconverge()
}

// reconverge runs passes until the engine quiesces; an edit that
// changed nothing leaves it quiescent and costs no pass.
func (s *Session) reconverge() error {
	if s.engine.Converged() {
		return nil
	}
	res := s.engine.Run()
	if !res.Converged {
		return fmt.Errorf("dpr: computation did not converge in %d passes", res.Passes)
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
// (same topology, e.g. NewSession over the writer's Snapshot, same
// damping) and re-converges: restoring under a tighter Epsilon resumes
// refinement from the stored state.
func (s *Session) Restore(r io.Reader) error {
	if err := s.engine.RestoreCheckpoint(r); err != nil {
		return err
	}
	s.engine.FlushPending()
	return s.reconverge()
}
