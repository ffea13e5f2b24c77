package dht

import "fmt"

// fingerBits is the ring width: fingers[i] targets id + 2^i.
const fingerBits = 64

// Node is one peer's view of the Chord ring. All routing uses only
// this node's successor and finger table, never global state. Every
// leave is graceful and repairs the pointers of the nodes that stay, so
// a live node's successor is always live: one pointer is enough.
type Node struct {
	id      ID
	name    string
	pred    *Node
	succ    *Node
	fingers [fingerBits]*Node
	alive   bool

	// keys maps ring positions to the opaque values PlaceKey stored
	// here; LeaveGraceful and a join's transfer move them with
	// membership.
	keys map[ID]interface{}
}

// ID returns the node's ring position.
func (n *Node) ID() ID { return n.id }

// Name returns the node's human-readable name.
func (n *Node) Name() string { return n.name }

// Alive reports whether the node is currently in the ring.
func (n *Node) Alive() bool { return n.alive }

// Successor returns the next live node on the ring.
func (n *Node) Successor() *Node { return n.succ }

// Owns reports whether key k lies in the live node's range (pred, id]:
// the keys it owns, and so the ones it took from its successor when it
// joined.
func (n *Node) Owns(k ID) bool { return between(k, n.pred.id, n.id) }

// closestPrecedingNode returns the live finger (or successor) whose id
// most closely precedes k, the Chord routing step.
func (n *Node) closestPrecedingNode(k ID) *Node {
	for i := fingerBits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f != nil && f.alive && betweenOpen(f.id, n.id, k) {
			return f
		}
	}
	if s := n.Successor(); s != nil && betweenOpen(s.id, n.id, k) {
		return s
	}
	return nil
}

// String renders the node for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("node(%s@%016x alive=%v keys=%d)", n.name, uint64(n.id), n.alive, len(n.keys))
}
