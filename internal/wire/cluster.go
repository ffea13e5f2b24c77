package wire

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"dpr/internal/dht"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

// Cluster runs a whole computation over real TCP sockets on localhost:
// N peers, random document placement, termination detection and rank
// collection. It is the in-process stand-in for the paper's vision of
// web servers cooperating across the Internet, and it survives the
// paper's dynamic-network conditions: connections may drop, peer pairs
// may partition, and individual peers may crash (Kill) and rejoin
// from their checkpoint at a new address (Restart) without losing a
// single update.
//
// Membership is live (paper section 3.1): a Chord ring (internal/dht)
// is the membership oracle, each document's GUID is a ring key placed
// at its owner, and ownership moves with the ring. Leave permanently
// removes a peer — its document range, duplicate-suppression tables
// and outbound queues migrate to its ring successor, and every live
// peer's routing and address tables are repushed so in-flight and
// parked updates chase the documents to their new owner. Join adds a
// fresh peer that takes over its canonical key range from its
// successor. Failure detection is partition-tolerant: every live slot
// runs its own heartbeat vantage (ClusterConfig.Heartbeat), suspicions
// gossip on the ping/pong exchange, and an unresponsive peer is only
// removed once a majority of live peers concurs — a minority side of a
// network split refuses to evict the majority, parks its updates, and
// reconciles through an anti-entropy view exchange when the partition
// heals. Every ownership transfer bumps a per-range epoch so frames
// stamped under a stale view are rejected instead of folded twice.
type Cluster struct {
	g   *graph.Graph
	cfg ClusterConfig

	docPeer []p2p.PeerID
	docs    [][]graph.NodeID

	ring  *dht.Ring
	nodes []*dht.Node // slot -> ring node

	mu        sync.Mutex
	peers     []*Peer         // nil while a slot is crashed or left
	snaps     []*PeerSnapshot // decoded snapshot of a crashed slot
	blobs     [][]byte        // serialized snapshot (exercises the codec)
	addrs     []string
	left      []bool       // slot departed permanently
	fenced    []bool       // slot quorum-evicted but unreachable: state parked until heal
	forwardTo []p2p.PeerID // left slot -> adopting successor slot
	epochs    []uint64     // per-slot ownership epoch; bumps on every transfer
	departed  PeerStats    // frozen counters of departed peers
	started   bool

	// Telemetry: one registry per slot (retained across Kill/Restart so
	// a slot's counters survive its crashes), a cluster-level registry
	// for membership and probe counters, and a shared convergence-event
	// trace. TelemetrySnapshot merges them all.
	regs  []*telemetry.Registry
	reg   *telemetry.Registry
	trace *telemetry.Trace
	dbg   *telemetry.DebugServer

	mJoins        *telemetry.Counter
	mLeaves       *telemetry.Counter
	mMigrated     *telemetry.Counter
	mProbes       *telemetry.Counter
	mEvictQuorum  *telemetry.Counter
	mEvictRefused *telemetry.Counter

	// Per-slot failure-detector vantages, guarded separately from mu so
	// the gossip callback on the peers' serve path never touches the
	// cluster lock.
	detMu sync.Mutex
	dets  []*detector

	fdQuit chan struct{}
	fdStop sync.Once
	fdWg   sync.WaitGroup
}

// ClusterConfig parameterizes NewCluster.
type ClusterConfig struct {
	Peers   int
	Damping float64 // 0 means 0.85
	Epsilon float64 // 0 means 1e-3
	Seed    uint64

	// Heartbeat enables the failure detectors: every live slot pings
	// the other slots each Heartbeat through the cluster transport
	// (under its own peer identity, so scripted partitions cut probes
	// too) and gossips its suspicion set on the exchange. A suspected
	// slot is evicted only when a majority of live peers concurs; a
	// crashed suspect departs with full state handoff, a live-but-
	// unreachable one is fenced until the partition heals. 0 disables
	// detection.
	Heartbeat time.Duration

	// SuspectAfter is the consecutive-miss threshold before a single
	// vantage SUSPECTS a slot (it no longer triggers eviction by
	// itself — that takes a quorum of concurring vantages); 0 means 3.
	SuspectAfter int

	// InboxCap sizes each peer's bulk inbox lane — the queue of
	// delivered-but-unfolded update batches, and the quantity the
	// receiver's advertised credit window shrinks with. 0 means 1024;
	// negative is rejected.
	InboxCap int

	// CreditWindow caps the unacknowledged frames a sender keeps in
	// flight per stream and the largest window a receiver advertises.
	// Together with InboxCap it bounds queued-frame memory per
	// connection under overload. 0 means 32; negative is rejected.
	CreditWindow int

	// SlowThreshold is the send-to-ack latency EWMA past which a
	// destination is treated as a straggler (smaller batches, stretched
	// ship cadence). 0 means 25ms; negative is rejected.
	SlowThreshold time.Duration

	// Transport dials every peer-to-peer connection; nil means the
	// real TCP dialer. Tests inject a FaultTransport to script
	// failures.
	Transport Transport

	// Retry shapes reconnect/redelivery backoff (defaults apply).
	Retry RetryPolicy

	// DebugAddr, when non-empty, starts the opt-in debug listener on
	// that address (host:port; ":0" picks an ephemeral port) serving
	// /metrics, /trace and /debug/pprof. Cluster.DebugAddr reports the
	// bound address.
	DebugAddr string

	// TraceCap bounds the convergence-event ring; 0 means 4096.
	TraceCap int
}

// NewCluster starts cfg.Peers TCP peers and distributes g's documents
// among them uniformly at random. Each document's GUID is also placed
// on the membership ring at its owner, so ownership can migrate with
// ring membership from then on.
func NewCluster(g *graph.Graph, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Peers < 1 {
		return nil, fmt.Errorf("wire: need at least one peer")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.InboxCap < 0 {
		return nil, fmt.Errorf("wire: negative InboxCap %d", cfg.InboxCap)
	}
	if cfg.CreditWindow < 0 {
		return nil, fmt.Errorf("wire: negative CreditWindow %d", cfg.CreditWindow)
	}
	if cfg.SlowThreshold < 0 {
		return nil, fmt.Errorf("wire: negative SlowThreshold %v", cfg.SlowThreshold)
	}
	if cfg.Transport == nil {
		cfg.Transport = TCPDialer()
	}
	r := rng.New(cfg.Seed)
	docPeer := make([]p2p.PeerID, g.NumNodes())
	docs := make([][]graph.NodeID, cfg.Peers)
	for d := 0; d < g.NumNodes(); d++ {
		pid := p2p.PeerID(r.Intn(cfg.Peers))
		docPeer[d] = pid
		docs[pid] = append(docs[pid], graph.NodeID(d))
	}
	c := &Cluster{
		g: g, cfg: cfg, docPeer: docPeer, docs: docs,
		ring:      dht.NewRing(),
		snaps:     make([]*PeerSnapshot, cfg.Peers),
		blobs:     make([][]byte, cfg.Peers),
		left:      make([]bool, cfg.Peers),
		fenced:    make([]bool, cfg.Peers),
		forwardTo: make([]p2p.PeerID, cfg.Peers),
		epochs:    make([]uint64, cfg.Peers),
		reg:       telemetry.NewRegistry(),
		trace:     telemetry.NewTrace(cfg.TraceCap),
		fdQuit:    make(chan struct{}),
	}
	c.trace.SetClock(func() int64 { return time.Now().UnixNano() })
	c.mJoins = c.reg.Counter("cluster_joins")
	c.mLeaves = c.reg.Counter("cluster_leaves")
	c.mMigrated = c.reg.Counter("cluster_docs_migrated")
	c.mProbes = c.reg.Counter("cluster_probes")
	c.mEvictQuorum = c.reg.Counter("wire_evictions_quorum")
	c.mEvictRefused = c.reg.Counter("wire_evictions_refused")
	for i := 0; i < cfg.Peers; i++ {
		c.regs = append(c.regs, telemetry.NewRegistry())
	}
	for i := 0; i < cfg.Peers; i++ {
		c.forwardTo[i] = p2p.NoPeer
		node, err := c.ring.AddPeer(fmt.Sprintf("peer-%d", i))
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	for d := 0; d < g.NumNodes(); d++ {
		node := c.nodes[docPeer[d]]
		if err := c.ring.PlaceKey(node, docKey(graph.NodeID(d)), graph.NodeID(d)); err != nil {
			return nil, err
		}
	}
	addrs := make([]string, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		peer, err := NewPeer(c.peerConfig(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.peers = append(c.peers, peer)
		addrs[i] = peer.Addr()
	}
	c.addrs = addrs
	for _, p := range c.peers {
		p.SetPeers(addrs)
	}
	if cfg.DebugAddr != "" {
		dbg, err := telemetry.ServeDebug(cfg.DebugAddr, c.TelemetrySnapshot, c.trace)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.dbg = dbg
	}
	return c, nil
}

// docKey maps a document id to its ring position.
func docKey(d graph.NodeID) dht.ID {
	return dht.GUIDFromUint64(uint64(d)).ID()
}

func (c *Cluster) peerConfig(i int) PeerConfig {
	return PeerConfig{
		ID:        p2p.PeerID(i),
		Graph:     c.g,
		DocPeer:   c.docPeer,
		Docs:      c.docs[i],
		Damping:   c.cfg.Damping,
		Epsilon:   c.cfg.Epsilon,
		Transport: c.cfg.Transport,
		Retry:     c.cfg.Retry,
		Registry:  c.regs[i],
		Trace:     c.trace,
		Epochs:    append([]uint64(nil), c.epochs...),

		InboxCap:      c.cfg.InboxCap,
		CreditWindow:  c.cfg.CreditWindow,
		SlowThreshold: c.cfg.SlowThreshold,
		Gossip:        c.gossipFor(i),
	}
}

// gossipFor wires a peer slot's ping/pong gossip exchange to the
// slot's detector vantage (a no-op hook until the detector starts).
func (c *Cluster) gossipFor(slot int) func(p2p.PeerID, []p2p.PeerID) []p2p.PeerID {
	return func(from p2p.PeerID, sus []p2p.PeerID) []p2p.PeerID {
		c.detMu.Lock()
		var d *detector
		if slot < len(c.dets) {
			d = c.dets[slot]
		}
		c.detMu.Unlock()
		if d == nil {
			return nil
		}
		if from >= 0 {
			d.recordView(int(from), sus)
		}
		return d.suspects()
	}
}

// startDetectorLocked launches slot i's failure-detector vantage.
// Callers hold c.mu; no-op when the heartbeat is disabled.
func (c *Cluster) startDetectorLocked(i int) {
	if c.cfg.Heartbeat <= 0 {
		return
	}
	d := &detector{c: c, slot: i, miss: make(map[int]int), views: make(map[int]detView)}
	c.detMu.Lock()
	for len(c.dets) <= i {
		c.dets = append(c.dets, nil)
	}
	c.dets[i] = d
	c.detMu.Unlock()
	c.fdWg.Add(1)
	go d.loop()
}

// ClusterResult reports a finished TCP computation.
type ClusterResult struct {
	Ranks    []float64
	Messages uint64 // updates shipped between peers (and self-loops)
	Probes   int    // termination-detector rounds
	Elapsed  time.Duration

	// PeerStats is every slot's counters summed, departed peers included.
	PeerStats

	// Membership accounting.
	Joins    uint64 // peers added while running
	Leaves   uint64 // peers permanently removed (manual or detected)
	Migrated uint64 // documents whose ownership moved between peers

	// Partition-tolerance accounting.
	EvictionsQuorum  uint64 // evictions confirmed by a live-peer majority
	EvictionsRefused uint64 // suspicions parked for lack of a quorum
}

// Kill crashes peer i: its goroutines stop, its connections reset,
// unfolded in-flight batches are lost (senders still hold them), and
// its durable state is checkpointed inside the cluster for a later
// Restart. The termination probe keeps counting the crashed peer's
// outstanding messages, so quiescence cannot be declared over updates
// parked in its store-and-retry queues. The cluster takes no
// membership action: with the failure detector enabled the slot will
// be suspected and permanently removed unless restarted first.
func (c *Cluster) Kill(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.peers) {
		return fmt.Errorf("wire: no peer %d", i)
	}
	if c.left[i] {
		return fmt.Errorf("wire: peer %d has left", i)
	}
	p := c.peers[i]
	if p == nil {
		return fmt.Errorf("wire: peer %d is already down", i)
	}
	c.peers[i] = nil
	snap := p.Kill()
	var buf bytes.Buffer
	if err := EncodeSnapshot(snap, &buf); err != nil {
		return err
	}
	c.snaps[i] = snap
	c.blobs[i] = buf.Bytes()
	c.trace.Record(telemetry.EvKill, int32(i), -1, 0, int64(len(snap.Docs)))
	if c.fenced[i] {
		// The quorum already evicted this slot; it was only being kept
		// around for a reconciling heal. Now that it crashed there is
		// nothing to wait for — complete the departure from the
		// checkpoint.
		return c.leaveLocked(i)
	}
	return nil
}

// Restart rejoins crashed peer i from its checkpoint: a fresh
// listener at a new address, redelivery of everything it had stored,
// and an address-table update pushed to every live peer so their
// reconnect loops re-resolve it.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.peers) {
		return fmt.Errorf("wire: no peer %d", i)
	}
	if c.left[i] {
		return fmt.Errorf("wire: peer %d has left permanently", i)
	}
	if c.peers[i] != nil {
		return fmt.Errorf("wire: peer %d is not down", i)
	}
	if c.blobs[i] == nil {
		return fmt.Errorf("wire: no checkpoint for peer %d", i)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(c.blobs[i]))
	if err != nil {
		return err
	}
	p, err := RestorePeer(c.peerConfig(i), snap)
	if err != nil {
		return err
	}
	c.peers[i] = p
	c.snaps[i] = nil
	c.blobs[i] = nil
	c.addrs[i] = p.Addr()
	c.pushAddrsLocked()
	c.trace.Record(telemetry.EvRestart, int32(i), -1, 0, int64(len(snap.Docs)))
	if c.started {
		p.Start()
	}
	return nil
}

// Leave permanently removes peer i: its ring node departs gracefully,
// its document range, duplicate-suppression tables and outbound queues
// migrate to its ring successor, and every live peer's routing and
// address tables are repushed. The peer may be live (it is killed
// first) or already crashed (its checkpoint is handed off). The last
// live slot cannot leave.
func (c *Cluster) Leave(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaveLocked(i)
}

func (c *Cluster) leaveLocked(i int) error {
	if i < 0 || i >= len(c.peers) {
		return fmt.Errorf("wire: no peer %d", i)
	}
	if c.left[i] {
		return fmt.Errorf("wire: peer %d has already left", i)
	}
	if c.ring.NumAlive() < 2 {
		return fmt.Errorf("wire: cannot remove the last live peer")
	}
	// The successor inherits everything; resolve it before the ring
	// forgets the departing node.
	node := c.nodes[i]
	succ := node.Successor()
	if succ == nil || succ == node {
		return fmt.Errorf("wire: peer %d has no live successor", i)
	}
	j := c.slotOf(succ)
	if j < 0 {
		return fmt.Errorf("wire: ring node %s has no cluster slot", succ.Name())
	}
	var snap *PeerSnapshot
	switch {
	case c.peers[i] != nil:
		snap = c.peers[i].Kill()
		c.peers[i] = nil
	case c.snaps[i] != nil:
		snap = c.snaps[i]
	default:
		return fmt.Errorf("wire: no state for peer %d", i)
	}
	if err := c.ring.LeaveGraceful(node); err != nil {
		return err
	}
	// Handoff ordering matters: the successor must hold the departed
	// peer's dedup tables BEFORE any sender learns the redirected
	// address, or a redirected retransmission could double-fold.
	if c.peers[j] != nil {
		if err := c.peers[j].Adopt(HandoffFromSnapshot(snap)); err != nil {
			return err
		}
	} else if c.snaps[j] != nil {
		// Successor is itself crashed: merge the handoff into its
		// checkpoint so its restart resumes with the adopted range.
		MergeSnapshot(c.snaps[j], snap)
		var buf bytes.Buffer
		if err := EncodeSnapshot(c.snaps[j], &buf); err != nil {
			return err
		}
		c.blobs[j] = buf.Bytes()
	} else {
		return fmt.Errorf("wire: successor %d of peer %d has no state", j, i)
	}
	// The departed peer's counters freeze into the cluster-wide
	// accumulators (the successor does not inherit them; it re-counts
	// the parked updates as it folds or forwards them).
	c.departed = addStats(c.departed, snap.PeerStats)
	// The slot holds no rows anymore: zero its rank-mass gauge or the
	// merged cluster gauge would double-count the migrated mass.
	c.regs[i].Gauge("wire_rank_mass").Set(0)
	for _, d := range snap.Docs {
		c.docPeer[d] = p2p.PeerID(j)
	}
	c.docs[j] = append(c.docs[j], snap.Docs...)
	c.docs[i] = nil
	c.snaps[i] = nil
	c.blobs[i] = nil
	c.left[i] = true
	c.fenced[i] = false
	c.forwardTo[i] = p2p.PeerID(j)
	// Ownership epochs fence the transfer: the departed range's epoch
	// and the successor's both bump, so frames stamped under the old
	// view are rejected rather than folded into stale owners.
	c.epochs[i]++
	c.epochs[j]++
	c.mLeaves.Add(1)
	c.mMigrated.Add(uint64(len(snap.Docs)))
	c.trace.Record(telemetry.EvLeave, int32(i), -1, 0, int64(j))
	c.pushOwnershipLocked(snap.Docs, p2p.PeerID(j))
	return nil
}

// Join adds a fresh peer: a new ring node takes over its canonical key
// range from its successor, the matching ranker rows are shed (from
// the live successor, or surgically from its checkpoint if crashed),
// and the new peer starts computing at the handed-over state while
// every live peer's routing and address tables are repushed. Returns
// the new slot index.
func (c *Cluster) Join() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := len(c.peers)
	node, err := c.ring.AddPeer(fmt.Sprintf("peer-%d", i))
	if err != nil {
		return -1, err
	}
	// The ring moved the keys in (pred, node] from the successor; those
	// are exactly the documents the new peer takes over.
	var docs []graph.NodeID
	node.EachKey(func(_ dht.ID, v interface{}) {
		docs = append(docs, v.(graph.NodeID))
	})
	sortDocs(docs)
	// Group by current owner (a single slot in practice — the keys all
	// came from the ring successor — but ownership is re-read from the
	// table so the code has no hidden single-source assumption).
	byOwner := make(map[p2p.PeerID][]graph.NodeID)
	for _, d := range docs {
		byOwner[c.docPeer[d]] = append(byOwner[c.docPeer[d]], d)
	}
	c.peers = append(c.peers, nil)
	c.snaps = append(c.snaps, nil)
	c.blobs = append(c.blobs, nil)
	c.addrs = append(c.addrs, "")
	c.left = append(c.left, false)
	c.fenced = append(c.fenced, false)
	c.forwardTo = append(c.forwardTo, p2p.NoPeer)
	// A joining slot's range is born from a transfer, so its epoch
	// starts at 1; the shedding owners bump below as their ranges
	// shrink.
	c.epochs = append(c.epochs, 1)
	c.nodes = append(c.nodes, node)
	c.docs = append(c.docs, nil)
	c.regs = append(c.regs, telemetry.NewRegistry())
	snap := &PeerSnapshot{ID: p2p.PeerID(i)}
	for owner, od := range byOwner {
		var rank, acc, last []float64
		var err error
		switch {
		case int(owner) < len(c.peers) && c.peers[owner] != nil:
			rank, acc, last, err = c.peers[owner].Shed(od, p2p.PeerID(i))
		case int(owner) < len(c.snaps) && c.snaps[owner] != nil:
			rank, acc, last, err = ShedFromSnapshot(c.snaps[owner], od)
			if err == nil {
				c.docs[owner] = removeDocs(c.docs[owner], od)
				var buf bytes.Buffer
				if err = EncodeSnapshot(c.snaps[owner], &buf); err == nil {
					c.blobs[owner] = buf.Bytes()
				}
			}
		default:
			err = fmt.Errorf("wire: owner %d of joining range has no state", owner)
		}
		if err != nil {
			return -1, err
		}
		snap.Docs = append(snap.Docs, od...)
		snap.Rank = append(snap.Rank, rank...)
		snap.Acc = append(snap.Acc, acc...)
		snap.Last = append(snap.Last, last...)
		if c.peers[owner] != nil {
			c.docs[owner] = removeDocs(c.docs[owner], od)
		}
		c.epochs[owner]++
	}
	for _, d := range snap.Docs {
		c.docPeer[d] = p2p.PeerID(i)
	}
	c.docs[i] = snap.Docs
	p, err := RestorePeer(c.peerConfig(i), snap)
	if err != nil {
		return -1, err
	}
	c.peers[i] = p
	c.addrs[i] = p.Addr()
	c.mJoins.Add(1)
	c.mMigrated.Add(uint64(len(snap.Docs)))
	c.trace.Record(telemetry.EvJoin, int32(i), -1, 0, int64(len(snap.Docs)))
	c.pushOwnershipLocked(snap.Docs, p2p.PeerID(i))
	if c.started {
		p.Start()
		c.startDetectorLocked(i)
	}
	return i, nil
}

// slotOf resolves a ring node back to its cluster slot.
func (c *Cluster) slotOf(n *dht.Node) int {
	for i, m := range c.nodes {
		if m == n {
			return i
		}
	}
	return -1
}

// effectiveAddrsLocked resolves departed slots to their adopting
// successor's address, following redirect chains across multiple
// departures. Senders keep dialing the slot their frames were framed
// for; the redirect delivers them to whoever owns that state now.
func (c *Cluster) effectiveAddrsLocked() []string {
	addrs := make([]string, len(c.addrs))
	for i := range c.addrs {
		j := i
		for hops := 0; c.left[j] && c.forwardTo[j] != p2p.NoPeer && hops <= len(c.addrs); hops++ {
			j = int(c.forwardTo[j])
		}
		addrs[i] = c.addrs[j]
	}
	return addrs
}

// viewLocked assembles the membership view pushed to live peers: the
// effective address table plus the epoch vector and the departed-slot
// redirects, so every peer reroutes and epoch-stamps consistently.
func (c *Cluster) viewLocked() View {
	return View{
		Addrs:  c.effectiveAddrsLocked(),
		Epochs: append([]uint64(nil), c.epochs...),
		Gone:   append([]bool(nil), c.left...),
		Fwd:    append([]p2p.PeerID(nil), c.forwardTo...),
	}
}

// pushAddrsLocked repushes the membership view to every live peer.
// Fenced slots are skipped: they are on the wrong side of a partition,
// and withholding the view is exactly what models that — they catch up
// through the anti-entropy exchange when the partition heals.
func (c *Cluster) pushAddrsLocked() {
	v := c.viewLocked()
	for i, q := range c.peers {
		if q != nil && !c.left[i] && !c.fenced[i] {
			q.SetView(v)
		}
	}
}

// pushOwnershipLocked pushes a migration (docs now belong to owner)
// plus the refreshed membership view to every live peer, which
// reroutes their parked updates.
func (c *Cluster) pushOwnershipLocked(docs []graph.NodeID, owner p2p.PeerID) {
	v := c.viewLocked()
	for i, q := range c.peers {
		if q != nil && !c.left[i] && !c.fenced[i] {
			q.UpdateOwnership(docs, owner, v)
		}
	}
}

// evictByQuorum executes a quorum-confirmed eviction proposed by the
// detector vantage from. A crashed suspect departs immediately — its
// checkpoint migrates exactly as with a manual Leave. A live-but-
// unreachable suspect is fenced instead: its ownership epoch bumps so
// the live side can reject its stale frames, but its state stays
// parked in place until the partition heals and reconcileFenced
// completes the departure — evicting a live peer's state while it can
// still mutate it would fork ownership. Returns false when the
// proposal has no effect (suspect already handled, proposer lost its
// own authority, or the suspect is the last live peer).
func (c *Cluster) evictByQuorum(s, from, votes, quorum int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s < 0 || s >= len(c.peers) || c.left[s] || c.fenced[s] {
		return false
	}
	if from < 0 || from >= len(c.peers) || c.left[from] || c.fenced[from] {
		return false // the proposer itself was evicted meanwhile
	}
	if c.ring.NumAlive() < 2 {
		return false
	}
	c.mEvictQuorum.Add(1)
	c.trace.Record(telemetry.EvEvict, int32(s), -1, float64(votes), int64(quorum))
	if c.peers[s] == nil {
		return c.leaveLocked(s) == nil
	}
	c.fenced[s] = true
	c.epochs[s]++
	c.pushAddrsLocked()
	return true
}

// reconcileFenced completes a fenced slot's departure once a
// quorum-connected vantage reaches it again: an anti-entropy view
// exchange hands the healed peer the current membership view (ring
// state plus epoch vector) so it reroutes its parked updates, then the
// slot leaves normally — its rows, dedup tables and queues migrate to
// its ring successor, which restores the single-owner invariant for
// every document it held.
func (c *Cluster) reconcileFenced(s, from int) {
	c.mu.Lock()
	if s < 0 || s >= len(c.peers) || c.left[s] || !c.fenced[s] || c.peers[s] == nil ||
		from < 0 || from >= len(c.peers) || c.left[from] || c.fenced[from] || c.peers[from] == nil {
		c.mu.Unlock()
		return
	}
	q := c.peers[from]
	c.mu.Unlock()
	// The exchange dials outside the cluster lock; a failure means the
	// heal was premature and the next detector round retries.
	if err := q.ExchangeView(p2p.PeerID(s)); err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left[s] || !c.fenced[s] {
		return // another vantage reconciled first
	}
	c.trace.Record(telemetry.EvHeal, int32(s), -1, 0, int64(from))
	c.fenced[s] = false
	c.leaveLocked(s) // best effort; a failed leave re-fences nothing — the detector retries
}

// sortDocs orders a document slice ascending (insertion sort is fine:
// migration sets are small relative to the graph).
func sortDocs(docs []graph.NodeID) {
	for i := 1; i < len(docs); i++ {
		for j := i; j > 0 && docs[j-1] > docs[j]; j-- {
			docs[j-1], docs[j] = docs[j], docs[j-1]
		}
	}
}

// removeDocs filters the shed documents out of an ownership list.
func removeDocs(docs, shed []graph.NodeID) []graph.NodeID {
	gone := make(map[graph.NodeID]struct{}, len(shed))
	for _, d := range shed {
		gone[d] = struct{}{}
	}
	keep := docs[:0]
	for _, d := range docs {
		if _, ok := gone[d]; !ok {
			keep = append(keep, d)
		}
	}
	return keep
}

// addStats sums two counter sets.
func addStats(a, b PeerStats) PeerStats {
	a.Sent += b.Sent
	a.Processed += b.Processed
	a.Retries += b.Retries
	a.Reconnects += b.Reconnects
	a.Redeliveries += b.Redeliveries
	a.Coalesced += b.Coalesced
	a.DupDropped += b.DupDropped
	a.Forwarded += b.Forwarded
	a.Misdropped += b.Misdropped
	a.EpochRejected += b.EpochRejected
	a.CreditStalls += b.CreditStalls
	a.ShedCoalesced += b.ShedCoalesced
	a.SlowPeer += b.SlowPeer
	a.DeltaShipped += b.DeltaShipped
	a.DeltaFolded += b.DeltaFolded
	return a
}

// Run starts every peer, waits for global quiescence (two consecutive
// probes with equal and unchanged sent/processed totals), collects the
// ranks, and shuts the cluster down. Peers may be killed, restarted,
// permanently removed and joined concurrently; quiescence is only
// declared once every update — including those parked in retry queues
// and those migrating between owners — has been folded.
func (c *Cluster) Run(timeout time.Duration) (ClusterResult, error) {
	start := time.Now()
	c.mu.Lock()
	c.started = true
	for _, p := range c.peers {
		if p != nil {
			p.Start()
		}
	}
	if c.cfg.Heartbeat > 0 {
		for i := range c.peers {
			if !c.left[i] {
				c.startDetectorLocked(i)
			}
		}
	}
	c.mu.Unlock()
	res := ClusterResult{}
	var prevSent, prevProcessed uint64 = ^uint64(0), ^uint64(0)
	deadline := time.Now().Add(timeout)
	for {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("wire: no quiescence within %v", timeout)
		}
		sent, processed := c.counters()
		c.mProbes.Add(1)
		res.Probes++
		if sent == processed && sent == prevSent && processed == prevProcessed {
			res.Messages = sent
			break
		}
		prevSent, prevProcessed = sent, processed
		time.Sleep(5 * time.Millisecond)
	}

	res.Ranks = c.collectAll()
	res.PeerStats = c.stats()
	res.Joins = c.mJoins.Load()
	res.Leaves = c.mLeaves.Load()
	res.Migrated = c.mMigrated.Load()
	res.EvictionsQuorum = c.mEvictQuorum.Load()
	res.EvictionsRefused = c.mEvictRefused.Load()
	res.Elapsed = time.Since(start)
	c.Close()
	return res, nil
}

// slotView is a consistent copy of the cluster's slot table.
type slotView struct {
	peers    []*Peer
	snaps    []*PeerSnapshot
	addrs    []string
	left     []bool
	departed PeerStats
}

func (c *Cluster) slots() slotView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slotView{
		peers:    append([]*Peer(nil), c.peers...),
		snaps:    append([]*PeerSnapshot(nil), c.snaps...),
		addrs:    append([]string(nil), c.addrs...),
		left:     append([]bool(nil), c.left...),
		departed: c.departed,
	}
}

// counters sums every slot's (sent, processed): live peers over TCP
// (falling back to a direct read when the probe connection fails
// transiently), crashed peers from their frozen checkpoint, departed
// peers from the cluster accumulators.
func (c *Cluster) counters() (sent, processed uint64) {
	v := c.slots()
	sent, processed = v.departed.Sent, v.departed.Processed
	for i := range v.peers {
		if v.left[i] {
			continue
		}
		if v.peers[i] == nil {
			if v.snaps[i] != nil {
				sent += v.snaps[i].Sent
				processed += v.snaps[i].Processed
			}
			continue
		}
		s, pr, err := probePeer(c.cfg.Transport, v.addrs[i])
		if err != nil {
			s, pr = v.peers[i].Counters()
		}
		sent += s
		processed += pr
	}
	return
}

// collectAll gathers every document's rank: live peers over TCP,
// crashed peers from their checkpoint. Departed slots hold nothing —
// their documents were adopted by live slots.
func (c *Cluster) collectAll() []float64 {
	ranks := make([]float64, c.g.NumNodes())
	v := c.slots()
	for i := range v.peers {
		if v.peers[i] == nil {
			if v.snaps[i] != nil {
				for j, d := range v.snaps[i].Docs {
					ranks[d] = v.snaps[i].Rank[j]
				}
			}
			continue
		}
		if err := collectRanks(c.cfg.Transport, v.addrs[i], ranks); err != nil {
			docs, rs := v.peers[i].rk.snapshotRanks()
			for j, d := range docs {
				ranks[d] = rs[j]
			}
		}
	}
	return ranks
}

// stats sums every slot's counters, departed peers included.
func (c *Cluster) stats() PeerStats {
	v := c.slots()
	st := v.departed
	for i := range v.peers {
		switch {
		case v.peers[i] != nil:
			st = addStats(st, v.peers[i].Stats())
		case v.snaps[i] != nil:
			st = addStats(st, v.snaps[i].PeerStats)
		}
	}
	return st
}

// probeTimeout bounds every observer round-trip so a hung peer can
// never stall the termination probe or rank collection.
const probeTimeout = 5 * time.Second

// probePeer and collectRanks dial as Observer — the cluster's
// non-peer role — so their traffic goes through the cluster's
// transport like everything else while fault injectors leave it clean.
func probePeer(tr Transport, addr string) (sent, processed uint64, err error) {
	payload, err := roundTrip(tr, Observer, Observer, addr, probeTimeout, frameSnapReq, nil, frameSnapResp)
	if err != nil {
		return 0, 0, err
	}
	return decodeSnapshot(payload)
}

func collectRanks(tr Transport, addr string, out []float64) error {
	payload, err := roundTrip(tr, Observer, Observer, addr, probeTimeout, frameRanksReq, nil, frameRanks)
	if err != nil {
		return err
	}
	_, err = decodeRanks(payload, out)
	return err
}

// Close stops the failure detectors, the debug listener (if any) and
// every peer.
func (c *Cluster) Close() {
	c.fdStop.Do(func() { close(c.fdQuit) })
	c.fdWg.Wait()
	c.mu.Lock()
	peers := append([]*Peer(nil), c.peers...)
	dbg := c.dbg
	c.dbg = nil
	c.mu.Unlock()
	if dbg != nil {
		dbg.Close()
	}
	for _, p := range peers {
		if p != nil {
			p.Close()
		}
	}
}

// TelemetrySnapshot merges every slot's registry (live, crashed and
// departed slots alike — a departed slot's registry holds its frozen
// final counters) with the cluster-level registry into one snapshot.
// Valid even after Close: registries are plain memory.
func (c *Cluster) TelemetrySnapshot() telemetry.Snapshot {
	c.mu.Lock()
	regs := append([]*telemetry.Registry(nil), c.regs...)
	c.mu.Unlock()
	snap := c.reg.Snapshot()
	for _, r := range regs {
		snap = snap.Merge(r.Snapshot())
	}
	return snap
}

// TelemetryText renders the merged snapshot in the /metrics exposition
// format.
func (c *Cluster) TelemetryText() string {
	var buf bytes.Buffer
	c.TelemetrySnapshot().RenderText(&buf)
	return buf.String()
}

// Trace exposes the cluster's convergence-event ring.
func (c *Cluster) Trace() *telemetry.Trace { return c.trace }

// DebugAddr reports the debug listener's bound address ("" when the
// listener is disabled or the cluster is closed).
func (c *Cluster) DebugAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dbg == nil {
		return ""
	}
	return c.dbg.Addr()
}

// NumPeers returns the number of slots ever allocated (departed slots
// included; they never come back).
func (c *Cluster) NumPeers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

// NumLive returns the number of live (running, non-departed,
// non-fenced) peers.
func (c *Cluster) NumLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i, p := range c.peers {
		if p != nil && !c.left[i] && !c.fenced[i] {
			n++
		}
	}
	return n
}

// DebugCounters sums the live counters without probing over TCP.
func (c *Cluster) DebugCounters() (sent, processed uint64) {
	v := c.slots()
	sent, processed = v.departed.Sent, v.departed.Processed
	for i := range v.peers {
		if v.left[i] {
			continue
		}
		if v.peers[i] == nil {
			if v.snaps[i] != nil {
				sent += v.snaps[i].Sent
				processed += v.snaps[i].Processed
			}
			continue
		}
		s, pr := v.peers[i].Counters()
		sent += s
		processed += pr
	}
	return
}
