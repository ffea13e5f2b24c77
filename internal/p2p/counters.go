package p2p

// Counters accumulates message-traffic statistics for one computation,
// the raw material of the paper's Table 3.
type Counters struct {
	InterPeerMsgs int64 // update messages crossing peer boundaries
	IntraPeerMsgs int64 // same-peer updates (free, per section 2.3)
	Deferred      int64 // messages queued for absent peers
	Redelivered   int64 // deferred messages eventually delivered
	RoutedHops    int64 // network hops priced by the configured Router
	Passes        int   // iterations until convergence
}

// Total returns all logical updates, networked or not.
func (c *Counters) Total() int64 { return c.InterPeerMsgs + c.IntraPeerMsgs }

// PerNode returns inter-peer messages per document, the paper's
// graph-size-independent traffic metric (Table 3 "Avg." columns).
func (c *Counters) PerNode(numDocs int) float64 {
	if numDocs == 0 {
		return 0
	}
	return float64(c.InterPeerMsgs) / float64(numDocs)
}

// HopsPerMessage returns the average network hops each inter-peer
// message traversed (1.0 when a direct router or no router is used).
func (c *Counters) HopsPerMessage() float64 {
	if c.InterPeerMsgs == 0 {
		return 0
	}
	return float64(c.RoutedHops) / float64(c.InterPeerMsgs)
}
