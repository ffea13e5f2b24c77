package core

import (
	"fmt"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// NewRankers validates opt and the placement and builds one p2p.Ranker
// per peer at push threshold start (ε when start is below it) — what
// TimedEngine here and the round driver in internal/engine deliver
// batches between. Each ranker reads adjacency through a cursor of its
// own (compressed representations decode into per-cursor buffers, so
// sharing one across goroutines would race).
func NewRankers(g graph.Linker, net *p2p.Network, opt Options, start float64) ([]*p2p.Ranker, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := opt.checkTeleport(g.NumNodes()); err != nil {
		return nil, err
	}
	docPeer := make([]p2p.PeerID, g.NumNodes())
	for d := range docPeer {
		if docPeer[d] = net.PeerOf(graph.NodeID(d)); docPeer[d] == p2p.NoPeer {
			return nil, fmt.Errorf("core: document %d is not placed on any peer", d)
		}
	}
	base := opt.baseTerms(g.NumNodes())
	rankers := make([]*p2p.Ranker, net.NumPeers())
	for p := range rankers {
		rankers[p] = p2p.NewRanker(p2p.PeerID(p), graph.CursorFor(g), net.Docs(p2p.PeerID(p)), docPeer,
			base, opt.Damping, opt.Epsilon, start, opt.Absolute, new(telemetry.Gauge))
	}
	return rankers, nil
}

// gatherRanks assembles the rank vector from the rankers' rows.
func gatherRanks(rankers []*p2p.Ranker, n int) []float64 {
	ranks := make([]float64, n)
	for _, rk := range rankers {
		rk.RanksInto(ranks)
	}
	return ranks
}
