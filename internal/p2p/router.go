package p2p

import (
	"fmt"

	"dpr/internal/dht"
	"dpr/internal/graph"
)

// Router prices the network path of one inter-peer update message in
// hops. The engines call it once per cross-peer message so the
// section 3.2 routing/caching economics can be measured without
// simulating packet motion.
type Router interface {
	Hops(from PeerID, doc graph.NodeID) int
}

// CachedRouter combines the Chord ring with the IP-address cache: the
// first message from a peer to a document routes through the DHT
// (O(log P) hops, counted by a real finger-table lookup), later
// messages go direct (1 hop). With the cache disabled — the
// Freenet-style anonymity regime — every message pays the routed
// price.
type CachedRouter struct {
	cache  *IPCache
	ring   *dht.Ring
	starts []*dht.Node // per-peer ring entry point
}

// NewCachedRouter builds the router for a network of numPeers peers.
// It creates a dedicated Chord ring with one node per peer. enabled
// selects whether addresses are cached after the first route.
func NewCachedRouter(numPeers int, enabled bool) (*CachedRouter, error) {
	if numPeers < 1 {
		return nil, fmt.Errorf("p2p: NewCachedRouter needs at least one peer")
	}
	ring := dht.NewRing()
	starts := make([]*dht.Node, numPeers)
	for i := 0; i < numPeers; i++ {
		n, err := ring.AddPeer(fmt.Sprintf("router-peer-%d", i))
		if err != nil {
			return nil, err
		}
		starts[i] = n
	}
	return &CachedRouter{
		cache:  NewIPCache(enabled),
		ring:   ring,
		starts: starts,
	}, nil
}

// Hops implements Router.
func (r *CachedRouter) Hops(from PeerID, doc graph.NodeID) int {
	start := r.starts[int(from)%len(r.starts)]
	return r.cache.Hops(from, doc, r.ring, start)
}

// DirectRouter prices every message at one hop — the idealized model
// the paper's Table 3 uses once IP caching is in effect.
type DirectRouter struct{}

// Hops implements Router.
func (DirectRouter) Hops(PeerID, graph.NodeID) int { return 1 }
