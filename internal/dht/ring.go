package dht

import (
	"fmt"
	"sort"
)

// Ring simulates a Chord network. It tracks every node ever added,
// departed ones included, so no name or id is used twice, and keeps a
// sorted oracle of live nodes for validation and deterministic pointer
// repair.
type Ring struct {
	byID   map[ID]*Node
	byName map[string]*Node
	sorted []*Node // live nodes in ascending id order
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{byID: make(map[ID]*Node), byName: make(map[string]*Node)}
}

// NumAlive returns the number of live peers.
func (r *Ring) NumAlive() int { return len(r.sorted) }

// Nodes returns the live peers in ring order. The slice is shared;
// callers must not modify it.
func (r *Ring) Nodes() []*Node { return r.sorted }

// AddPeer creates a peer named name, joins it to the ring, hands over
// the keys it now owns, and repairs routing state. It returns an error
// on duplicate names or (astronomically unlikely) id collisions.
func (r *Ring) AddPeer(name string) (*Node, error) {
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("dht: peer %q already exists", name)
	}
	id := PeerIDFromName(name)
	if _, dup := r.byID[id]; dup {
		return nil, fmt.Errorf("dht: id collision for peer %q", name)
	}
	n := &Node{id: id, name: name, alive: true, keys: make(map[ID]interface{})}
	r.byID[id] = n
	r.byName[name] = n
	r.insertSorted(n)
	r.transferKeysOnJoin(n)
	r.repairPointers()
	return n, nil
}

// LeaveGraceful removes a peer, handing its keys to its successor
// (used for permanent departures where data must survive).
func (r *Ring) LeaveGraceful(n *Node) error {
	if err := r.checkLive(n); err != nil {
		return err
	}
	if len(r.sorted) > 1 {
		succ := r.ownerExcluding(n.id+1, n)
		for k, v := range n.keys {
			succ.keys[k] = v
		}
	}
	n.keys = make(map[ID]interface{})
	n.alive = false
	r.removeSorted(n)
	r.repairPointers()
	return nil
}

func (r *Ring) checkLive(n *Node) error {
	if r.byID[n.id] != n {
		return fmt.Errorf("dht: %s is not a member of this ring", n.name)
	}
	if !n.alive {
		return fmt.Errorf("dht: %s is not alive", n.name)
	}
	return nil
}

// Owner returns the live node owning key k (the first node whose id
// succeeds k on the ring). This is the brute-force oracle.
func (r *Ring) Owner(k ID) *Node {
	if len(r.sorted) == 0 {
		return nil
	}
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= k })
	if i == len(r.sorted) {
		i = 0 // wrap
	}
	return r.sorted[i]
}

func (r *Ring) ownerExcluding(k ID, skip *Node) *Node {
	o := r.Owner(k)
	if o != skip {
		return o
	}
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= o.id })
	return r.sorted[(i+1)%len(r.sorted)]
}

// maxLookupHops bounds routing; beyond this the ring state is broken.
func (r *Ring) maxLookupHops() int { return 2*fingerBits + len(r.sorted) + 4 }

// Lookup routes from node start to the owner of key k using only
// successor/finger knowledge, returning the owner and the number of
// routing hops taken. A hop is one node-to-node forwarding step; a key
// owned by the start node itself costs 0 hops.
func (r *Ring) Lookup(k ID, start *Node) (*Node, int, error) {
	if start == nil || !start.alive {
		return nil, 0, fmt.Errorf("dht: lookup from dead or nil node")
	}
	cur := start
	hops := 0
	limit := r.maxLookupHops()
	for {
		pred := cur.pred
		if pred != nil && pred.alive && between(k, pred.id, cur.id) {
			return cur, hops, nil
		}
		succ := cur.Successor()
		if succ == nil {
			if len(r.sorted) == 1 && cur.alive {
				return cur, hops, nil // singleton ring owns everything
			}
			return nil, hops, fmt.Errorf("dht: node %s has no live successor", cur.name)
		}
		if between(k, cur.id, succ.id) {
			return succ, hops + 1, nil
		}
		next := cur.closestPrecedingNode(k)
		if next == nil || next == cur {
			next = succ
		}
		cur = next
		hops++
		if hops > limit {
			return nil, hops, fmt.Errorf("dht: lookup for %016x exceeded %d hops", uint64(k), limit)
		}
	}
}

// PlaceKey stores value under key k at a specific live node, even when
// that node is not the key's canonical owner, as a random placement
// does; from then on the key moves with membership — LeaveGraceful
// hands a departing node's keys to its successor, and AddPeer's
// transferKeysOnJoin pulls the new node's range from its successor.
func (r *Ring) PlaceKey(n *Node, k ID, v interface{}) error {
	if err := r.checkLive(n); err != nil {
		return err
	}
	n.keys[k] = v
	return nil
}

// --- membership plumbing ---

func (r *Ring) insertSorted(n *Node) {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= n.id })
	r.sorted = append(r.sorted, nil)
	copy(r.sorted[i+1:], r.sorted[i:])
	r.sorted[i] = n
}

func (r *Ring) removeSorted(n *Node) {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= n.id })
	if i < len(r.sorted) && r.sorted[i] == n {
		r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
	}
}

// transferKeysOnJoin moves keys in (pred, n] from n's successor to n.
func (r *Ring) transferKeysOnJoin(n *Node) {
	if len(r.sorted) < 2 {
		return
	}
	succ := r.ownerExcluding(n.id+1, n)
	pred := r.predecessorOf(n)
	for k, v := range succ.keys {
		if between(k, pred.id, n.id) {
			n.keys[k] = v
			delete(succ.keys, k)
		}
	}
}

func (r *Ring) predecessorOf(n *Node) *Node {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= n.id })
	if i == 0 {
		return r.sorted[len(r.sorted)-1]
	}
	return r.sorted[i-1]
}

// repairPointers deterministically rebuilds predecessors, successors
// and finger tables for every live node, equivalent to Chord's
// stabilization protocol having fully converged.
func (r *Ring) repairPointers() {
	m := len(r.sorted)
	if m == 0 {
		return
	}
	for i, n := range r.sorted {
		n.pred = r.sorted[(i-1+m)%m]
		n.succ = r.sorted[(i+1)%m]
		for b := 0; b < fingerBits; b++ {
			target := n.id + (ID(1) << uint(b))
			n.fingers[b] = r.Owner(target)
		}
	}
}

// CheckInvariants validates ring structure: sorted order, live flags,
// successor/predecessor consistency. Used by tests.
func (r *Ring) CheckInvariants() error {
	for i, n := range r.sorted {
		if !n.alive {
			return fmt.Errorf("dht: dead node %s in live list", n.name)
		}
		if i > 0 && r.sorted[i-1].id >= n.id {
			return fmt.Errorf("dht: live list out of order at %d", i)
		}
	}
	m := len(r.sorted)
	for i, n := range r.sorted {
		want := r.sorted[(i+1)%m]
		if got := n.Successor(); got != want {
			return fmt.Errorf("dht: %s successor = %v, want %v", n.name, got, want)
		}
		wantPred := r.sorted[(i-1+m)%m]
		if n.pred != wantPred {
			return fmt.Errorf("dht: %s predecessor = %v, want %v", n.name, n.pred, wantPred)
		}
	}
	return nil
}
