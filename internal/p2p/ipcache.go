package p2p

import (
	"dpr/internal/dht"
	"dpr/internal/graph"
)

// IPCache models the section 3.2 optimization: the first update
// message for a document is routed through the DHT (costing O(log P)
// hops); the resolved owner's address is then cached at the sender so
// subsequent messages travel a single direct hop.
//
// Storage scales with the number of distinct (sender peer, target
// document) pairs, i.e. linearly in the sum of out-links per peer,
// matching the paper's accounting.
type IPCache struct {
	enabled bool
	cache   map[cacheKey]struct{}

	routedLookups int64 // messages that needed a DHT route
	cachedSends   int64 // messages served from the cache
	routedHops    int64 // total DHT hops spent on routed lookups
}

type cacheKey struct {
	from PeerID
	doc  graph.NodeID
}

// NewIPCache returns a cache; when enabled is false every message
// routes through the DHT (the Freenet-style behaviour where anonymity
// forbids caching addresses).
func NewIPCache(enabled bool) *IPCache {
	return &IPCache{enabled: enabled, cache: make(map[cacheKey]struct{})}
}

// Hops charges the routing cost of sending one message from peer from
// to document doc, using ring to price the DHT route on a miss. The
// returned value is the number of network hops the message traverses.
func (c *IPCache) Hops(from PeerID, doc graph.NodeID, ring *dht.Ring, start *dht.Node) int {
	key := cacheKey{from, doc}
	if c.enabled {
		if _, hit := c.cache[key]; hit {
			c.cachedSends++
			return 1
		}
	}
	hops := 1
	if ring != nil && start != nil {
		if _, h, err := ring.Lookup(dht.GUIDFromUint64(uint64(doc)).ID(), start); err == nil {
			hops = h
			if hops < 1 {
				hops = 1
			}
		}
	}
	c.routedLookups++
	c.routedHops += int64(hops)
	if c.enabled {
		c.cache[key] = struct{}{}
	}
	return hops
}

// InvalidateDocs drops the cached addresses for the given documents
// across all senders. Membership changes call this with the migrated
// key range so the next send re-routes through the DHT and re-learns
// the new owner instead of delivering to a departed peer.
func (c *IPCache) InvalidateDocs(docs []graph.NodeID) {
	gone := make(map[graph.NodeID]struct{}, len(docs))
	for _, d := range docs {
		gone[d] = struct{}{}
	}
	for key := range c.cache {
		if _, hit := gone[key.doc]; hit {
			delete(c.cache, key)
		}
	}
}

// Stats returns (routed lookups, cached sends, total routed hops).
func (c *IPCache) Stats() (routed, cached, hops int64) {
	return c.routedLookups, c.cachedSends, c.routedHops
}
