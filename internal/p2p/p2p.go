// Package p2p provides the peer-network substrate under the
// distributed pagerank computation: assignment of documents to peers,
// the churn model (peers leaving/rejoining between passes, section
// 4.2/4.3), store-and-retry queues for updates destined to absent
// peers (section 3.1), the IP-address cache (section 3.2) and message
// accounting.
package p2p

import (
	"fmt"

	"dpr/internal/graph"
	"dpr/internal/rng"
)

// PeerID indexes a peer in the network, 0..P-1.
type PeerID int32

// NoPeer marks an unassigned document.
const NoPeer PeerID = -1

// Network tracks peers, document placement and liveness. It is the
// shared state of the pass engine and the experiment harness.
type Network struct {
	numPeers int
	docPeer  []PeerID // document -> owning peer
	online   []bool   // peer -> currently present
	docs     [][]graph.NodeID
}

// NewNetwork creates a network of numPeers peers with every peer
// online and no documents placed.
func NewNetwork(numPeers int) *Network {
	if numPeers < 1 {
		panic("p2p: NewNetwork needs at least one peer")
	}
	n := &Network{
		numPeers: numPeers,
		online:   make([]bool, numPeers),
		docs:     make([][]graph.NodeID, numPeers),
	}
	for i := range n.online {
		n.online[i] = true
	}
	return n
}

// NumPeers returns the number of peers (online or not).
func (n *Network) NumPeers() int { return n.numPeers }

// NumOnline returns the number of peers currently present.
func (n *Network) NumOnline() int {
	c := 0
	for _, up := range n.online {
		if up {
			c++
		}
	}
	return c
}

// AssignRandom places every document of g on a uniformly random peer,
// the paper's placement policy ("each document in the graph is then
// randomly assigned to a peer").
func (n *Network) AssignRandom(g graph.Linker, r *rng.Rand) {
	n.docPeer = make([]PeerID, g.NumNodes())
	n.docs = make([][]graph.NodeID, n.numPeers)
	for d := 0; d < g.NumNodes(); d++ {
		p := PeerID(r.Intn(n.numPeers))
		n.docPeer[d] = p
		n.docs[p] = append(n.docs[p], graph.NodeID(d))
	}
}

// PeerOf returns the peer holding document d, or NoPeer if the
// document has not been placed (e.g. beyond the assigned range).
func (n *Network) PeerOf(d graph.NodeID) PeerID {
	if int(d) >= len(n.docPeer) {
		return NoPeer
	}
	return n.docPeer[d]
}

// Docs returns the documents stored on peer p. Shared slice; do not
// modify.
func (n *Network) Docs(p PeerID) []graph.NodeID { return n.docs[p] }

// PlaceDoc assigns (or reassigns) a single document to a peer,
// growing the placement table as needed; used by document-insert
// experiments.
func (n *Network) PlaceDoc(d graph.NodeID, p PeerID) {
	for int(d) >= len(n.docPeer) {
		n.docPeer = append(n.docPeer, NoPeer)
	}
	if old := n.docPeer[d]; old != NoPeer {
		list := n.docs[old]
		for i, x := range list {
			if x == d {
				n.docs[old] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	n.docPeer[d] = p
	n.docs[p] = append(n.docs[p], d)
}

// Online reports whether peer p is present.
func (n *Network) Online(p PeerID) bool { return n.online[p] }

// SetOnline flips a peer's presence.
func (n *Network) SetOnline(p PeerID, up bool) { n.online[p] = up }

// DocOnline reports whether document d's peer is present.
func (n *Network) DocOnline(d graph.NodeID) bool {
	p := n.PeerOf(d)
	return p != NoPeer && n.online[p]
}

// Validate checks placement invariants.
func (n *Network) Validate() error {
	counts := make([]int, n.numPeers)
	for d, p := range n.docPeer {
		if p == NoPeer {
			continue
		}
		if int(p) >= n.numPeers {
			return fmt.Errorf("p2p: doc %d on invalid peer %d", d, p)
		}
		counts[p]++
	}
	for p, list := range n.docs {
		if len(list) != counts[p] {
			return fmt.Errorf("p2p: peer %d doc list has %d entries, placement says %d",
				p, len(list), counts[p])
		}
		for _, d := range list {
			if n.docPeer[d] != PeerID(p) {
				return fmt.Errorf("p2p: doc %d listed on peer %d but placed on %d",
					d, p, n.docPeer[d])
			}
		}
	}
	return nil
}
