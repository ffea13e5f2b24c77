package wire

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/dht"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

// Cluster runs a whole computation over real TCP sockets on localhost:
// N peers, random document placement, termination detection and rank
// collection; the last two read the peers in process and send nothing.
// It is the in-process stand-in for the paper's vision of
// web servers cooperating across the Internet, and it survives the
// paper's dynamic-network conditions: connections may drop, peer pairs
// may partition, and individual peers may crash (Kill) and rejoin
// from their checkpoint at a new address (Restart) without losing a
// single update.
//
// Membership is live (paper section 3.1): a Chord ring (internal/dht)
// is the membership oracle — it holds the peers, not the documents —
// and ownership moves with it. Leave permanently removes a peer — its
// document range, duplicate-suppression tables and outbound queues
// migrate to its ring successor, and every live peer's routing and
// address tables are repushed so in-flight and parked updates chase
// the documents to their new owner. Join adds a fresh peer that takes
// over its key range from its successor: the successor's documents
// whose GUID lies in the joiner's range. Failure detection is
// partition-tolerant: every live slot runs its own heartbeat vantage
// (ClusterConfig.Heartbeat), suspicions gossip on the ping/pong
// exchange, and an unresponsive peer is only removed once a majority of
// live peers concurs — a minority side of a network split refuses to
// evict the majority and parks its updates; a fenced minority peer
// departs to its successor, like a Leave, once a quorum-connected
// vantage reaches it after the partition heals. Every ownership
// transfer bumps a per-range epoch so frames stamped under a stale view
// are rejected instead of folded twice.
type Cluster struct {
	g   *graph.Graph
	cfg ClusterConfig

	// docPeer is every document's owner. Each peer's ranker keeps the
	// table it was built with and reads it without a lock, so a
	// membership change replaces the table (setOwnersLocked) rather than
	// writing into one a peer may be reading.
	docPeer []p2p.PeerID
	ring    *dht.Ring

	mu       sync.Mutex
	slots    []slot
	departed PeerStats // frozen counters of departed peers
	started  bool
	thr      float64 // push-threshold stage (p2p.Ranker): Run lowers it, peers are born at it

	// Telemetry: one registry per slot, a cluster-level registry for
	// membership and probe counters, and a shared convergence-event
	// trace. TelemetrySnapshot merges them all.
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

// slot is everything the cluster knows about one peer slot, guarded by
// Cluster.mu. A slot is live (peer set), crashed (snap set: the
// checkpoint Kill took, waiting for Restart or Leave) or departed (left,
// neither set: its state moved to slot forward). Slots are never
// reused; Join appends one.
type slot struct {
	peer    *Peer
	snap    *PeerSnapshot
	addr    string
	left    bool
	fenced  bool                // quorum-evicted but unreachable: state parked until heal
	forward p2p.PeerID          // the successor that adopted a departed slot; NoPeer otherwise
	epoch   uint64              // ownership epoch of the slot's range; bumps on every transfer
	node    *dht.Node           // the slot's ring node
	docs    []graph.NodeID      // the documents it owns
	reg     *telemetry.Registry // kept across Kill/Restart, so its counters survive a crash
}

// active reports a running peer on the cluster's side of every
// partition: the ones a membership change is pushed to. A fenced slot
// is on the wrong side, and withholding the view is exactly what models
// that — it never catches up: when the partition heals it departs, and
// its successor adopts its state.
func (s *slot) active() bool { return s.peer != nil && !s.fenced }

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

	// Transport dials every peer-to-peer connection; nil means the
	// real TCP dialer. Tests inject a FaultTransport to script
	// failures.
	Transport Transport

	// DebugAddr, when non-empty, starts the opt-in debug listener on
	// that address (host:port; ":0" picks an ephemeral port) serving
	// /metrics, /trace and /debug/pprof. Cluster.DebugAddr reports the
	// bound address.
	DebugAddr string
}

// NewCluster starts cfg.Peers TCP peers and distributes g's documents
// among them uniformly at random. The placement lives in docPeer and
// the slots' document lists only; the ring decides where it moves. It
// is drawn serially from cfg.Seed, so a seed always gives the same
// owners; the peers are then built on every core at once (buildPeers),
// as the paper's peers each build their own state on their own machine.
func NewCluster(g *graph.Graph, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Peers < 1 {
		return nil, fmt.Errorf("wire: need at least one peer")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.Transport == nil {
		cfg.Transport = TCPDialer()
	}
	cfg.Epsilon, cfg.Damping = cmp.Or(cfg.Epsilon, 1e-3), cmp.Or(cfg.Damping, 0.85)
	c := &Cluster{
		g: g, cfg: cfg, docPeer: make([]p2p.PeerID, g.NumNodes()),
		ring:   dht.NewRing(),
		reg:    telemetry.NewRegistry(),
		trace:  telemetry.NewTrace(0),
		fdQuit: make(chan struct{}),
		thr:    p2p.StartThreshold(cfg.Epsilon),
	}
	c.trace.SetClock(func() int64 { return time.Now().UnixNano() })
	c.mJoins = c.reg.Counter("cluster_joins")
	c.mLeaves = c.reg.Counter("cluster_leaves")
	c.mMigrated = c.reg.Counter("cluster_docs_migrated")
	c.mProbes = c.reg.Counter("cluster_probes")
	c.mEvictQuorum = c.reg.Counter("wire_evictions_quorum")
	c.mEvictRefused = c.reg.Counter("wire_evictions_refused")
	c.reg.Gauge("cluster_push_threshold").Set(c.thr)
	for i := 0; i < cfg.Peers; i++ {
		if _, err := c.addSlotLocked(0); err != nil {
			return nil, err
		}
	}
	r := rng.New(cfg.Seed)
	for d := range c.docPeer {
		pid := r.Intn(cfg.Peers)
		c.docPeer[d] = p2p.PeerID(pid)
		c.slots[pid].docs = append(c.slots[pid].docs, graph.NodeID(d))
	}
	cfgs := make([]PeerConfig, len(c.slots))
	for i := range cfgs {
		cfgs[i] = c.peerConfig(i)
	}
	peers, err := buildPeers(cfgs)
	if err != nil {
		return nil, err
	}
	for i, peer := range peers {
		c.slots[i].peer, c.slots[i].addr = peer, peer.Addr()
	}
	c.pushAddrsLocked()
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

// buildPeers builds one peer per config, on at most GOMAXPROCS
// goroutines at once: a build compiles its ranker's shard from the
// shared, read-only graph and placement and opens its own listener, so
// no build reads what another writes. It returns the peers by index
// once every build has returned. If any build failed, it closes every
// peer that was built and returns the failure of the lowest index.
func buildPeers(cfgs []PeerConfig) ([]*Peer, error) {
	peers := make([]*Peer, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cfgs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cfgs); i = int(next.Add(1) - 1) {
				peers[i], errs[i] = NewPeer(cfgs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
		return nil, fmt.Errorf("wire: building peer %d: %w", i, err)
	}
	return peers, nil
}

// addSlotLocked allocates the next slot — a ring node and a registry,
// no peer yet — and returns its index.
func (c *Cluster) addSlotLocked(epoch uint64) (int, error) {
	node, err := c.ring.AddPeer(fmt.Sprintf("peer-%d", len(c.slots)))
	if err != nil {
		return -1, err
	}
	c.slots = append(c.slots, slot{forward: p2p.NoPeer, epoch: epoch, node: node, reg: telemetry.NewRegistry()})
	return len(c.slots) - 1, nil
}

// docKey maps a document id to its ring position.
func docKey(d graph.NodeID) dht.ID {
	return dht.GUIDFromUint64(uint64(d)).ID()
}

func (c *Cluster) peerConfig(i int) PeerConfig {
	epochs := make([]uint64, len(c.slots))
	for j := range c.slots {
		epochs[j] = c.slots[j].epoch
	}
	return PeerConfig{
		ID:        p2p.PeerID(i),
		Graph:     c.g,
		DocPeer:   c.docPeer,
		Docs:      c.slots[i].docs,
		Damping:   c.cfg.Damping,
		Epsilon:   c.cfg.Epsilon,
		Threshold: c.thr,
		Transport: c.cfg.Transport,
		Registry:  c.slots[i].reg,
		Trace:     c.trace,
		Epochs:    epochs,
		Gossip:    c.gossipFor(i),
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

	// Always 0: the counters these named are gone. bench/workload.go,
	// edited only as benchmark upkeep, is their only reader; the next
	// benchmark change deletes them together with that read (ROADMAP,
	// "Finish the subtraction").
	CreditStalls, ShedCoalesced, SlowPeer uint64
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
	s, err := c.slotLocked(i)
	if err != nil {
		return err
	}
	if s.peer == nil {
		return fmt.Errorf("wire: peer %d is already down", i)
	}
	s.snap, s.peer = s.peer.Kill(), nil
	c.trace.Record(telemetry.EvKill, int32(i), -1, 0, int64(len(s.snap.Docs)))
	if s.fenced {
		// The quorum already evicted this slot; it was only being kept
		// around for a reconciling heal. Now that it crashed there is
		// nothing to wait for — complete the departure from the
		// checkpoint.
		return c.leaveLocked(i)
	}
	return nil
}

// slotLocked returns slot i, or why nothing can be done to it: it does
// not exist, or it departed.
func (c *Cluster) slotLocked(i int) (*slot, error) {
	if i < 0 || i >= len(c.slots) {
		return nil, fmt.Errorf("wire: no peer %d", i)
	}
	if c.slots[i].left {
		return nil, fmt.Errorf("wire: peer %d has left", i)
	}
	return &c.slots[i], nil
}

// Restart rejoins crashed peer i from its checkpoint: a fresh
// listener at a new address, redelivery of everything it had stored,
// and an address-table update pushed to every live peer so their
// reconnect loops re-resolve it.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.slotLocked(i)
	if err != nil {
		return err
	}
	if s.peer != nil {
		return fmt.Errorf("wire: peer %d is not down", i)
	}
	if s.snap == nil {
		return fmt.Errorf("wire: no checkpoint for peer %d", i)
	}
	// The checkpoint crosses its codec here, once, whatever happened to
	// it while the slot was down (a merged hand-over, a shed range): a
	// restart only ever consumes what DecodeSnapshot accepted.
	var blob bytes.Buffer
	if err := EncodeSnapshot(s.snap, &blob); err != nil {
		return err
	}
	snap, err := DecodeSnapshot(&blob)
	if err != nil {
		return err
	}
	p, err := RestorePeer(c.peerConfig(i), snap)
	if err != nil {
		return err
	}
	s.peer, s.snap, s.addr = p, nil, p.Addr()
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
	s, err := c.slotLocked(i)
	if err != nil {
		return err
	}
	if c.ring.NumAlive() < 2 {
		return fmt.Errorf("wire: cannot remove the last live peer")
	}
	// The successor inherits everything; resolve it before the ring
	// forgets the departing node.
	succ := s.node.Successor()
	if succ == nil || succ == s.node {
		return fmt.Errorf("wire: peer %d has no live successor", i)
	}
	j := c.slotOf(succ)
	if j < 0 {
		return fmt.Errorf("wire: ring node %s has no cluster slot", succ.Name())
	}
	if s.peer != nil {
		s.snap, s.peer = s.peer.Kill(), nil
	}
	snap := s.snap
	if snap == nil {
		return fmt.Errorf("wire: no state for peer %d", i)
	}
	if err := c.ring.LeaveGraceful(s.node); err != nil {
		return err
	}
	// Handoff ordering matters: the successor must hold the departed
	// peer's dedup tables BEFORE any sender learns the redirected
	// address, or a redirected retransmission could double-fold.
	to := &c.slots[j]
	switch {
	case to.peer != nil:
		if err := to.peer.Adopt(snap); err != nil {
			return err
		}
	case to.snap != nil:
		// Successor is itself crashed: merge the handoff into its
		// checkpoint so its restart resumes with the adopted range.
		MergeSnapshot(to.snap, snap)
	default:
		return fmt.Errorf("wire: successor %d of peer %d has no state", j, i)
	}
	// The departed peer's counters freeze into the cluster-wide
	// accumulators (the successor does not inherit them; it re-counts
	// the parked updates as it folds or forwards them).
	c.departed = addStats(c.departed, snap.PeerStats)
	// The slot holds no rows anymore: zero its rank-mass gauge or the
	// merged cluster gauge would double-count the migrated mass.
	s.reg.Gauge("wire_rank_mass").Set(0)
	c.setOwnersLocked(snap.Docs, p2p.PeerID(j))
	to.docs = append(to.docs, snap.Docs...)
	s.docs, s.snap = nil, nil
	s.left, s.fenced, s.forward = true, false, p2p.PeerID(j)
	// Ownership epochs fence the transfer: the departed range's epoch
	// and the successor's both bump, so frames stamped under the old
	// view are rejected rather than folded into stale owners.
	s.epoch++
	to.epoch++
	c.mLeaves.Add(1)
	c.mMigrated.Add(uint64(len(snap.Docs)))
	c.trace.Record(telemetry.EvLeave, int32(i), -1, 0, int64(j))
	c.pushOwnershipLocked(snap.Docs, p2p.PeerID(j))
	return nil
}

// Join adds a fresh peer: a new ring node takes over its key range
// from its successor — the successor's documents whose docKey lies in
// it — the matching ranker rows are shed (from the live successor, or
// surgically from its checkpoint if crashed), and the new peer starts
// computing at the handed-over state while every live peer's routing
// and address tables are repushed. Returns the new slot index.
func (c *Cluster) Join() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A joining slot's range is born from a transfer, so its epoch
	// starts at 1; the successor's bumps below as its range shrinks.
	i, err := c.addSlotLocked(1)
	if err != nil {
		return -1, err
	}
	// The range (pred, node] was the successor's, so the new peer takes
	// exactly the successor's documents that hash into it; the successor
	// keeps the rest in their order.
	node := c.slots[i].node
	j := c.slotOf(node.Successor())
	if j < 0 {
		return -1, fmt.Errorf("wire: joining peer %d has no live successor", i)
	}
	from := &c.slots[j]
	snap := &PeerSnapshot{ID: p2p.PeerID(i)}
	kept := make([]graph.NodeID, 0, len(from.docs))
	for _, d := range from.docs {
		if node.Owns(docKey(d)) {
			snap.Docs = append(snap.Docs, d)
		} else {
			kept = append(kept, d)
		}
	}
	slices.Sort(snap.Docs)
	if len(snap.Docs) > 0 {
		switch {
		case from.peer != nil:
			snap.Acc, snap.Last, err = from.peer.Shed(snap.Docs, p2p.PeerID(i))
		case from.snap != nil:
			snap.Acc, snap.Last, err = ShedFromSnapshot(from.snap, snap.Docs)
		default:
			err = fmt.Errorf("wire: successor %d of joining peer %d has no state", j, i)
		}
		if err != nil {
			return -1, err
		}
		from.docs = kept
		from.epoch++
	}
	c.setOwnersLocked(snap.Docs, p2p.PeerID(i))
	s := &c.slots[i]
	s.docs = snap.Docs
	p, err := RestorePeer(c.peerConfig(i), snap)
	if err != nil {
		return -1, err
	}
	s.peer, s.addr = p, p.Addr()
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

// setOwnersLocked gives docs to owner in a copy of the placement.
func (c *Cluster) setOwnersLocked(docs []graph.NodeID, owner p2p.PeerID) {
	c.docPeer = slices.Clone(c.docPeer)
	for _, d := range docs {
		c.docPeer[d] = owner
	}
}

// slotOf resolves a ring node back to its cluster slot.
func (c *Cluster) slotOf(n *dht.Node) int {
	return slices.IndexFunc(c.slots, func(s slot) bool { return s.node == n })
}

// viewLocked assembles the membership view pushed to live peers. A
// departed slot is listed at the address of whoever holds its state now,
// following the forwards across multiple departures: senders keep
// dialing the slot their frames were framed for, and the redirect
// delivers them. The walk ends: a slot forwards to a successor that
// was live when it left, and a departed slot is never a successor.
func (c *Cluster) viewLocked() View {
	v := make(View, len(c.slots))
	for i, s := range c.slots {
		j := i
		for c.slots[j].left {
			j = int(c.slots[j].forward)
		}
		v[i] = ViewSlot{Addr: c.slots[j].addr, Epoch: s.epoch}
	}
	return v
}

// pushAddrsLocked repushes the membership view to every active peer.
func (c *Cluster) pushAddrsLocked() {
	v := c.viewLocked()
	for i := range c.slots {
		if s := &c.slots[i]; s.active() {
			s.peer.SetView(v)
		}
	}
}

// pushOwnershipLocked pushes a migration (docs now belong to owner)
// plus the refreshed membership view to every active peer, which
// reroutes their parked updates.
func (c *Cluster) pushOwnershipLocked(docs []graph.NodeID, owner p2p.PeerID) {
	v := c.viewLocked()
	for i := range c.slots {
		if s := &c.slots[i]; s.active() {
			s.peer.UpdateOwnership(docs, owner, v)
		}
	}
}

// votingLocked reports whether slot i exists and is neither departed
// nor fenced: the population that proposes, votes on and is subject to
// evictions.
func (c *Cluster) votingLocked(i int) bool {
	return i >= 0 && i < len(c.slots) && !c.slots[i].left && !c.slots[i].fenced
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
	// A false from: the proposer itself was evicted meanwhile.
	if !c.votingLocked(s) || !c.votingLocked(from) || c.ring.NumAlive() < 2 {
		return false
	}
	c.mEvictQuorum.Add(1)
	c.trace.Record(telemetry.EvEvict, int32(s), -1, float64(votes), int64(quorum))
	if c.slots[s].peer == nil {
		return c.leaveLocked(s) == nil
	}
	c.slots[s].fenced = true
	c.slots[s].epoch++
	c.pushAddrsLocked()
	return true
}

// reconcileFenced completes a fenced slot's departure once a
// quorum-connected vantage reaches it again, the way a fenced slot that
// crashes departs: the slot leaves normally — its rows, dedup tables
// and parked queues migrate to its ring successor, whose Adopt reroutes
// them by its own current table, which restores the single-owner
// invariant for every document it held. Nothing is exchanged with the
// healed peer first: the cluster mints every epoch, so its view is
// never ahead of the vantage's. Only a leave that succeeds clears
// fenced; after a failed one the slot stays fenced and the next
// detector round retries.
func (c *Cluster) reconcileFenced(s, from int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s < 0 || s >= len(c.slots) || !c.slots[s].fenced || c.slots[s].peer == nil ||
		!c.votingLocked(from) || c.slots[from].peer == nil {
		return
	}
	if c.leaveLocked(s) == nil {
		c.trace.Record(telemetry.EvHeal, int32(s), -1, 0, int64(from))
	}
}

// stageInflight: Run moves to the next push-threshold stage once
// in-flight updates are down to this share of the documents — no
// barrier, it costs more than the ordering saves (DESIGN.md §13).
const stageInflight = 16

// Run starts every peer, walks the push threshold down to ε — a stage
// each time the in-process counters show in-flight updates down to
// 1/stageInflight of the documents, or stuck; early costs messages,
// never correctness — then waits for global quiescence (two consecutive
// probes with equal and unchanged sent/processed totals), collects the
// ranks, and shuts the cluster down. Peers may be killed, restarted,
// permanently removed and joined concurrently; quiescence is only
// declared once every update — including those parked in retry queues
// and those migrating between owners — has been folded.
func (c *Cluster) Run(timeout time.Duration) (ClusterResult, error) {
	start := time.Now()
	c.mu.Lock()
	c.started = true
	for i, s := range c.slots {
		if s.peer != nil {
			s.peer.Start()
		}
		if !s.left {
			c.startDetectorLocked(i)
		}
	}
	staged := c.thr > c.cfg.Epsilon
	c.mu.Unlock()
	res := ClusterResult{}
	var prevSent, prevProcessed uint64 = ^uint64(0), ^uint64(0)
	deadline := time.Now().Add(timeout)
	for ; ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("wire: no quiescence within %v", timeout)
		}
		if staged {
			// Stuck: frames parked for a crashed slot hold in-flight up.
			sent, processed := c.DebugCounters()
			if sent <= processed+uint64(c.g.NumNodes()/stageInflight) || (sent == prevSent && processed == prevProcessed) {
				staged = c.relax()
				sent, processed = ^uint64(0), ^uint64(0) // what follows compares with nothing older
			}
			prevSent, prevProcessed = sent, processed
			continue
		}
		sent, processed := c.DebugCounters()
		c.mProbes.Add(1)
		res.Probes++
		if sent == processed && sent == prevSent && processed == prevProcessed {
			res.Messages = sent
			break
		}
		prevSent, prevProcessed = sent, processed
	}

	res.Ranks = c.collectAll()
	res.Elapsed = time.Since(start)
	c.Close()
	// Counters are read from the registries, which outlive Close, once
	// nothing can move them: a retransmission of a frame whose ack the
	// faults dropped after quiescence still counts before Close returns.
	res.PeerStats = c.stats()
	res.Joins = c.mJoins.Load()
	res.Leaves = c.mLeaves.Load()
	res.Migrated = c.mMigrated.Load()
	res.EvictionsQuorum = c.mEvictQuorum.Load()
	res.EvictionsRefused = c.mEvictRefused.Load()
	return res, nil
}

// relax moves the cluster to the next push-threshold stage: every live
// peer sweeps at it on its own processing loop (one shutting down is
// skipped: RestorePeer and Adopt sweep). Reports whether stages remain.
func (c *Cluster) relax() bool {
	c.mu.Lock()
	c.thr = p2p.NextThreshold(c.thr, c.cfg.Epsilon)
	thr := c.thr
	slots := slices.Clone(c.slots)
	c.mu.Unlock()
	var wg sync.WaitGroup
	var released atomic.Int64
	for _, s := range slots {
		if s.peer == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, _ := s.peer.Relax(thr)
			released.Add(int64(n))
		}()
	}
	wg.Wait()
	c.reg.Gauge("cluster_push_threshold").Set(thr)
	c.trace.Record(telemetry.EvRelax, -1, -1, thr, released.Load())
	return thr > c.cfg.Epsilon
}

// table returns a consistent copy of the slot table and the departed
// peers' frozen counters.
func (c *Cluster) table() ([]slot, PeerStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.slots), c.departed
}

// visit is the one place that knows where a slot's state lives: a
// running peer (live), a crashed slot's checkpoint (crashed), or — for
// a departed slot — nowhere, because a live slot adopted it.
func visit(slots []slot, live func(slot), crashed func(*PeerSnapshot)) {
	for _, s := range slots {
		switch {
		case s.peer != nil:
			live(s)
		case s.snap != nil:
			crashed(s.snap)
		}
	}
}

// sum adds up every slot's counters: a live peer's as read by live, a
// crashed peer's from its frozen checkpoint, the departed peers' from
// the cluster accumulators.
func (c *Cluster) sum(live func(slot) PeerStats) PeerStats {
	slots, st := c.table()
	visit(slots,
		func(s slot) { st = addStats(st, live(s)) },
		func(snap *PeerSnapshot) { st = addStats(st, snap.PeerStats) })
	return st
}

// DebugCounters sums every slot's (sent, processed), read in process:
// the termination probe and the staging loop both read it.
func (c *Cluster) DebugCounters() (sent, processed uint64) {
	st := c.sum(func(s slot) PeerStats {
		sent, processed := s.peer.Counters()
		return PeerStats{Sent: sent, Processed: processed}
	})
	return st.Sent, st.Processed
}

// stats sums every slot's full counter set.
func (c *Cluster) stats() PeerStats {
	return c.sum(func(s slot) PeerStats { return s.peer.Stats() })
}

// collectAll gathers every document's rank: live peers' from their
// rankers, crashed peers' from their checkpoint.
func (c *Cluster) collectAll() []float64 {
	ranks := make([]float64, c.g.NumNodes())
	slots, _ := c.table()
	visit(slots,
		func(s slot) { s.peer.rk.RanksInto(ranks) },
		func(snap *PeerSnapshot) { p2p.UniformRanksInto(ranks, c.cfg.Damping, snap.Docs, snap.Acc) })
	return ranks
}

// Close stops the failure detectors, the debug listener (if any) and
// every peer.
func (c *Cluster) Close() {
	c.fdStop.Do(func() { close(c.fdQuit) })
	c.fdWg.Wait()
	c.mu.Lock()
	slots := slices.Clone(c.slots)
	dbg := c.dbg
	c.dbg = nil
	c.mu.Unlock()
	if dbg != nil {
		dbg.Close()
	}
	for _, s := range slots {
		if s.peer != nil {
			s.peer.Close()
		}
	}
}

// TelemetrySnapshot merges every slot's registry (live, crashed and
// departed slots alike — a departed slot's registry holds its frozen
// final counters) with the cluster-level registry into one snapshot.
// Valid even after Close: registries are plain memory.
func (c *Cluster) TelemetrySnapshot() telemetry.Snapshot {
	slots, _ := c.table()
	snap := c.reg.Snapshot()
	for _, s := range slots {
		snap = snap.Merge(s.reg.Snapshot())
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
	return len(c.slots)
}

// NumLive returns the number of live (running, non-departed,
// non-fenced) peers.
func (c *Cluster) NumLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.slots {
		if c.slots[i].active() {
			n++
		}
	}
	return n
}
