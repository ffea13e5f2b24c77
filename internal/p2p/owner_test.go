package p2p

import "dpr/internal/graph"

// OwnerTable returns where the ranker routes each document of its
// placement, decoded into one table: this peer for a held row.
func (r *Ranker) OwnerTable() []PeerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	table := make([]PeerID, len(r.placement))
	for d := range table {
		table[d] = r.ownerLocked(graph.NodeID(d))
	}
	return table
}
