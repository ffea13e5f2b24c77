package wire

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

// The reconnect/redelivery backoff of the fault-tolerant senders: delays
// grow exponentially from retryBase to retryMax, with a ±retryJitter/2
// multiplicative spread so a burst of failures does not resynchronize
// every peer's retry clock.
const (
	retryBase   = 5 * time.Millisecond
	retryMax    = 250 * time.Millisecond
	retryJitter = 0.5
)

// backoffDelay returns the backoff for the given consecutive-failure
// count.
func backoffDelay(r *rng.Rand, fails int) time.Duration {
	d := retryBase
	for i := 1; i < fails && d < retryMax; i++ {
		d *= 2
	}
	d = min(d, retryMax)
	return time.Duration(float64(d) * (1 + retryJitter*(r.Float64()-0.5)))
}

// writeTimeout bounds every frame write on the wire path, so a hung
// receiver surfaces as a connection error (and a retransmission)
// instead of blocking a sender forever.
const writeTimeout = 10 * time.Second

// ackTimeout bounds how long a sender waits for the reply to its frame
// in flight. The deadline is armed for each reply read; with nothing in
// flight nobody reads, so an idle connection never expires, but a peer
// that accepts a frame and then hangs is torn down and the frame
// retransmitted on the next connection.
const ackTimeout = 15 * time.Second

// Overload protection. A stream keeps one frame in flight: the receiver
// acks a frame after the consume that folded it, so a stream sends
// exactly when its receiver holds no unfolded work from it, and
// whatever the ranker emits meanwhile coalesces in the retry queue
// (DESIGN.md §11).
const (
	// inboxCap sizes the inbox. With one frame in flight per stream it
	// seldom holds more than an item per inbound stream.
	inboxCap = 1024

	// batchCap bounds the coalesced updates drained into one fresh
	// frame.
	batchCap = 4096
)

// PeerConfig configures one TCP peer.
type PeerConfig struct {
	ID      p2p.PeerID
	Graph   *graph.Graph // shared, read-only
	DocPeer []p2p.PeerID // doc -> owning peer; kept by the ranker, so never written afterwards (p2p.NewRanker)
	Docs    []graph.NodeID
	Damping float64 // 0 means 0.85
	Epsilon float64 // 0 means 1e-3

	// Threshold is the push threshold the peer is born at, the stage its
	// cluster is in (p2p.Ranker); the zero value means Epsilon.
	Threshold float64

	// Transport dials outbound connections; nil means the real TCP
	// dialer. Tests inject a FaultTransport here.
	Transport Transport

	// Registry receives the peer's instruments (wire_sent,
	// wire_delta_shipped, ...); nil means a private registry, which
	// Peer.Registry exposes. Cluster frontends pass one registry per
	// peer slot and merge them into a cluster-wide snapshot.
	Registry *telemetry.Registry

	// Trace, when non-nil, receives convergence events (ship, fold,
	// retry, reconnect) from this peer.
	Trace *telemetry.Trace

	// Epochs seeds the peer's per-slot ownership-epoch vector (indexed
	// by PeerID). Nil starts every slot at epoch 0. The cluster passes
	// its current vector so a restarted or joining peer stamps outbound
	// frames with up-to-date epochs from its first frame on.
	Epochs []uint64

	// Gossip, when non-nil, is invoked for every suspicion-gossip ping
	// this peer serves: it receives the pinging slot's suspicion set and
	// returns this slot's own, which rides back on the pong. The cluster
	// wires it to the slot's failure-detector vantage; a nil hook serves
	// empty pongs.
	Gossip func(from p2p.PeerID, suspects []p2p.PeerID) []p2p.PeerID
}

// stream identifies one exactly-once delivery sequence: the sender and
// the peer the frames were originally framed for. Under static
// membership dest is always the receiving peer; after a permanent
// leave, frames framed for the departed peer are redirected to its
// successor and dedup'd against the stream they were sequenced on,
// which the successor adopted with the rest of the departed state.
type stream struct {
	src  p2p.PeerID
	dest p2p.PeerID
}

// Peer is one network node of the computation: a TCP listener, one
// persistent outbound connection per delivery stream, and the chaotic
// iteration state for the documents it owns.
//
// The outbound path implements the paper's store-and-retry protocol:
// updates bound for a remote peer are coalesced into a per-destination
// retry queue, framed with (sender, origDest, seq) headers, and kept
// by the sender until the destination acknowledges folding them.
// Connection loss triggers reconnection with exponential backoff and
// verbatim retransmission of every unacknowledged frame; receivers
// suppress redelivered duplicates per stream, so delivery is
// exactly-once end to end — including across ownership migrations,
// where both the frames and the duplicate-suppression table move to
// the departed peer's successor together.
type Peer struct {
	cfg  PeerConfig
	rk   *p2p.Ranker
	ln   net.Listener
	addr string

	// Membership view, one record per slot. Mutated when a crashed peer
	// rejoins at a new address, a departed peer's slot is redirected to
	// its successor, or a frame or nack proves a higher epoch; reads
	// always go through peerAddr/epochOf/view.
	peersMu sync.Mutex
	slots   View

	// Outbound senders, created lazily, keyed by delivery stream,
	// plus the shared retry queue holding not-yet-framed updates per
	// destination.
	sendMu  sync.Mutex
	senders map[stream]*sender
	rqMu    sync.Mutex
	rq      *p2p.RetryQueue
	merges  int // rq.Merges() when countMerges last ran; guarded by rqMu

	// Inbound connections, tracked so Close can unblock their readers.
	inMu sync.Mutex
	ins  map[net.Conn]struct{}

	// inbox carries update batches and control operations (control) to
	// the processing loop, in arrival order.
	inbox chan inItem
	quit  chan struct{}
	// stopOnce guards quit's close: stop is reachable from Close, Kill
	// and the cluster's shutdown at once.
	stopOnce sync.Once
	wg       sync.WaitGroup

	// lastSeq is the duplicate-suppression table: the highest folded
	// sequence number per delivery stream. Owned by processLoop; read
	// elsewhere only after the loops have stopped (Kill).
	lastSeq map[stream]uint64

	// rejected remembers epoch-rejected sequence numbers per stream.
	// lastSeq can legitimately advance past a rejected frame (a later
	// frame stamped with the refreshed epoch folds first), so without
	// this memory a retransmission of the rejected frame — sent because
	// the nack was lost with its connection — would be mistaken for a
	// duplicate of a folded frame and acknowledged, silently discarding
	// updates that never folded anywhere. Seqs listed here bypass
	// duplicate suppression and go back through the epoch fence: still
	// stale re-nacks, a re-stamped copy at the current epoch folds.
	// Same ownership discipline as lastSeq.
	rejected map[stream]map[uint64]struct{}

	restored bool // resumed from a snapshot: skip the initial push

	// m holds the peer's registry-backed instruments and trace the
	// (optional) convergence-event ring. PeerStats and the termination
	// probe read through m, so the registry is the single source of truth
	// for every tally.
	m     peerMetrics
	trace *telemetry.Trace
}

// inItem is one inbox entry: a batch of updates plus, for remote
// frames, the stream metadata the processing loop needs to suppress
// duplicates, fence stale epochs and acknowledge folding. Control
// operations (handoff adoption, document shedding, threshold sweeps)
// also travel through the inbox, as functions for the loop to run
// (control), so they serialize with folding without extra locks.
type inItem struct {
	from     p2p.PeerID
	origDest p2p.PeerID
	seq      uint64
	epoch    uint64 // the sender's ownership epoch for origDest
	us       []p2p.Update

	// cw is the connection a remote frame arrived on, which its credit
	// ack or stale-epoch nack goes back out of. nil marks a local item
	// (self-directed updates), which has no stream: it is folded without
	// dedup, fence or acknowledgement.
	cw *connWriter

	op func() // nil unless this item is a control operation
}

// PeerStats is a point-in-time view of one peer's counters. A
// PeerSnapshot carries its peer's across a crash and a ClusterResult
// the sum over every slot, both by embedding.
type PeerStats struct {
	Sent      uint64 // updates shipped between peers (and self-loops)
	Processed uint64 // updates consumed: folded, or absorbed by coalescing

	// Fault-tolerance accounting.
	Retries      uint64 // frame transmissions past a frame's first attempt
	Reconnects   uint64 // successful re-dials after a connection loss
	Redeliveries uint64 // frames acknowledged after more than one attempt
	Coalesced    uint64 // updates absorbed by sender-side delta coalescing
	DupDropped   uint64 // duplicate frames suppressed by receivers

	// Membership and partition-tolerance accounting.
	Forwarded     uint64 // updates re-shipped after racing a migration
	Misdropped    uint64 // updates dropped with no resolvable owner (0 = none)
	EpochRejected uint64 // frames nacked for carrying a stale ownership epoch

	UpdatesWide uint64 // framed updates whose delta is no bfloat16 and crosses in 4 or 8 bytes

	DeltaShipped float64 // total delta mass shipped
	DeltaFolded  float64 // total delta mass folded (== shipped when none lost)
}

// NewPeer starts listening on 127.0.0.1 (ephemeral port). Call
// Start after SetPeers to begin computing.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.Graph == nil || cfg.DocPeer == nil {
		return nil, fmt.Errorf("wire: nil graph or placement")
	}
	if cfg.Transport == nil {
		cfg.Transport = TCPDialer()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := newPeerMetrics(cfg.Registry)
	p := &Peer{
		cfg:      cfg,
		rk:       p2p.NewRanker(cfg.ID, cfg.Graph, cfg.Docs, cfg.DocPeer, nil, cfg.Damping, cfg.Epsilon, cfg.Threshold, false, m.rankMass),
		ln:       ln,
		addr:     ln.Addr().String(),
		senders:  make(map[stream]*sender),
		rq:       p2p.NewRetryQueue(),
		ins:      make(map[net.Conn]struct{}),
		inbox:    make(chan inItem, inboxCap),
		quit:     make(chan struct{}),
		lastSeq:  make(map[stream]uint64),
		rejected: make(map[stream]map[uint64]struct{}),
		m:        m,
		trace:    cfg.Trace,
	}
	for _, e := range cfg.Epochs {
		p.slots = append(p.slots, ViewSlot{Epoch: e})
	}
	p.wg.Add(1)
	go p.acceptLoop()
	// The processing loop runs from birth, not from Start: membership
	// operations (Adopt/Shed) and early inbound frames must be served
	// even on a peer that has not begun computing yet.
	p.wg.Add(1)
	go p.processLoop()
	return p, nil
}

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.addr }

// SetPeers installs the full peer address table (indexed by PeerID).
// It may be called again while running when a crashed peer rejoins at
// a new address, a fresh peer joins (the table grows), or a departed
// peer's slot is redirected to its successor's address.
func (p *Peer) SetPeers(addrs []string) {
	p.peersMu.Lock()
	p.growViewLocked(len(addrs))
	for i := range p.slots {
		p.slots[i].Addr = ""
		if i < len(addrs) {
			p.slots[i].Addr = addrs[i]
		}
	}
	p.peersMu.Unlock()
}

// peerAddr resolves a destination's current address ("" if unknown).
func (p *Peer) peerAddr(dest p2p.PeerID) string {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	if dest < 0 || int(dest) >= len(p.slots) {
		return ""
	}
	return p.slots[dest].Addr
}

// View is one peer's picture of cluster membership, one record per
// slot, as the cluster pushes it on every membership change (SetView,
// UpdateOwnership).
type View []ViewSlot

// ViewSlot is one slot of a View.
type ViewSlot struct {
	Addr  string // where the slot answers now: a departed slot's successor's address
	Epoch uint64 // ownership epoch of the slot's key range
}

// SetView installs the full membership view. Pushed by the cluster on
// every membership change; SetPeers is the address-only entry point a
// cluster uses before the first one.
func (p *Peer) SetView(v View) {
	p.peersMu.Lock()
	p.slots = slices.Clone(v)
	p.peersMu.Unlock()
}

// view snapshots the peer's current membership view.
func (p *Peer) view() View {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	return slices.Clone(p.slots)
}

// growViewLocked extends the view to cover n slots. Caller holds
// peersMu.
func (p *Peer) growViewLocked(n int) {
	for len(p.slots) < n {
		p.slots = append(p.slots, ViewSlot{})
	}
}

// epochOf reads this peer's epoch for a slot's key range (0 when the
// slot is unknown).
func (p *Peer) epochOf(slot p2p.PeerID) uint64 {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	if slot < 0 || int(slot) >= len(p.slots) {
		return 0
	}
	return p.slots[slot].Epoch
}

// adoptEpoch raises this peer's epoch for a slot's key range. Called
// when a frame or nack proves a higher epoch exists: the ownership
// transfer that minted it strictly precedes the evidence, so adopting
// the number (never lowering it) is always safe.
func (p *Peer) adoptEpoch(slot p2p.PeerID, epoch uint64) {
	if slot < 0 {
		return
	}
	p.peersMu.Lock()
	p.growViewLocked(int(slot) + 1)
	if epoch > p.slots[slot].Epoch {
		p.slots[slot].Epoch = epoch
	}
	p.peersMu.Unlock()
}

// Start begins computing: it wakes the senders and performs the
// initial push (skipped for peers restored from a snapshot or
// constructed from a join handoff, whose ranker state already
// reflects everything pushed before).
func (p *Peer) Start() {
	p.wakeSenders()
	if p.restored {
		return
	}
	// Initial push of every owned document's starting rank. Self-
	// directed updates enter through the inbox; the processing loop is
	// already running, so the buffered channel drains.
	if self := p.ship(p.rk.InitialOut(), true); len(self) > 0 {
		select {
		case p.inbox <- inItem{from: p.cfg.ID, us: self}:
		case <-p.quit:
		}
	}
}

// wakeSenders nudges every sender loop (e.g. after an address-table
// update redirected a departed peer's slot).
func (p *Peer) wakeSenders() {
	p.sendMu.Lock()
	for _, s := range p.senders {
		s.wakeUp()
	}
	p.sendMu.Unlock()
}

// stop halts every goroutine and closes every connection.
func (p *Peer) stop() {
	p.stopOnce.Do(func() { close(p.quit) })
	p.ln.Close()
	p.sendMu.Lock()
	ss := make([]*sender, 0, len(p.senders))
	for _, s := range p.senders {
		ss = append(ss, s)
	}
	p.sendMu.Unlock()
	for _, s := range ss {
		s.interrupt()
	}
	p.inMu.Lock()
	for conn := range p.ins {
		conn.Close()
	}
	p.inMu.Unlock()
	p.wg.Wait()
}

// Close stops the peer and waits for its goroutines.
func (p *Peer) Close() { p.stop() }

// Kill simulates a crash: every goroutine stops, every connection
// drops, queued-but-unfolded inbound batches are lost, and the peer's
// durable state — ranker state, duplicate-suppression table, and the
// store-and-retry outbound queues — is returned as a snapshot from
// which RestorePeer can rejoin the network. Folded state is treated
// as committed (as if every fold had been synchronously logged), which
// together with fold-before-ack ordering guarantees no acknowledged
// update is ever lost.
func (p *Peer) Kill() *PeerSnapshot {
	p.stop()
	return p.snapshot()
}

// Counters reports (sent, processed) for termination probing.
func (p *Peer) Counters() (uint64, uint64) {
	return p.m.sent.Load(), p.m.processed.Load()
}

// Stats reports the peer's full counter set, read from the telemetry
// registry.
func (p *Peer) Stats() PeerStats { return p.m.stats() }

// Registry exposes the registry holding this peer's instruments.
func (p *Peer) Registry() *telemetry.Registry { return p.m.reg }

// event records a convergence-trace event when a trace is attached.
//
//dpr:hotpath
func (p *Peer) event(typ telemetry.EventType, value float64, aux int64) {
	if p.trace != nil {
		p.trace.Record(typ, int32(p.cfg.ID), -1, value, aux)
	}
}

// acceptLoop serves inbound connections.
func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go p.serveConn(conn)
	}
}

// connWriter serializes frame writes on one inbound connection, which
// is shared between the reader's responses and the processing loop's
// acknowledgements.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte // the frame being written; reused under mu
}

// write emits one frame, in one Write, under a write deadline, so a
// jammed peer can never stall the processing loop or a response path:
// a lost ack is recovered by the retransmission, which is re-acked.
func (cw *connWriter) write(typ byte, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.buf = appendFrame(reuse(cw.buf), typ, payload)
	cw.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	//dpr:ignore lockhold: intentional — the write deadline above bounds the hold to writeTimeout
	_, err := cw.conn.Write(cw.buf)
	return err
}

// serveConn handles one inbound connection's frames. Each 'E' frame's
// stream, seq and epoch are rebuilt from the connection's head first.
func (p *Peer) serveConn(conn net.Conn) {
	defer p.wg.Done()
	// stop closes quit, then every conn in ins under inMu. Checking quit
	// under the same lock, a conn is either registered before that close
	// loop and closed by it, or refused here: one registered after it
	// would stay open, and its reader would hold up stop's wait until the
	// remote side gave up.
	p.inMu.Lock()
	select {
	case <-p.quit:
		p.inMu.Unlock()
		conn.Close()
		return
	default:
	}
	p.ins[conn] = struct{}{}
	p.inMu.Unlock()
	defer func() {
		conn.Close()
		p.inMu.Lock()
		delete(p.ins, conn)
		p.inMu.Unlock()
	}()
	cw := &connWriter{conn: conn}
	var head streamHead
	for {
		//dpr:nodeadline inbound conns idle between sender batches by design; teardown is via Close from the failure detector or peer shutdown
		typ, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case frameBatchEpoch:
			from, origDest, seq, epoch, us, err := decodeStreamBatch(payload, &head)
			if err != nil {
				return
			}
			it := inItem{from: from, origDest: origDest, seq: seq, epoch: epoch, us: us, cw: cw}
			select {
			case p.inbox <- it:
			case <-p.quit:
				return
			}
		case framePing:
			// A non-empty ping carries suspicion gossip; the pong answers
			// with this slot's own suspicion set when the hook is wired.
			var reply []byte
			if len(payload) > 0 {
				from, sus, err := decodeGossip(payload)
				if err != nil {
					return
				}
				if p.cfg.Gossip != nil {
					reply = encodeGossip(p.cfg.ID, p.cfg.Gossip(from, sus))
				}
			}
			if err := cw.write(framePong, reply); err != nil {
				return
			}
		default:
			return // protocol violation: drop the connection
		}
	}
}

// ack acknowledges a remote frame as folded (or as a duplicate of a
// folded one) with a credit frame, which lets its stream send its next
// frame.
func (p *Peer) ack(it *inItem) {
	var b [1]byte
	it.cw.write(frameCredit, encodeCredit(b[:0], it.seq))
}

// processLoop consumes delivered batches, taking whatever is already
// queued along before recomputing. Self-directed consequences are
// folded in the same loop rather than re-queued through the inbox,
// which would self-deadlock when the channel is full.
//
// Woken by a batch, the loop first lets the rest of its burst land:
// it yields until the inbox stops growing, so frames that arrive in
// the same scheduling round fold in one consume and ship once
// (DESIGN.md §11). That is bounded: a stream has one frame in flight,
// so the inbox grows by about an item per inbound stream at most. With
// an idle core the first yield returns at once.
func (p *Peer) processLoop() {
	defer p.wg.Done()
	for {
		var it inItem
		select {
		case <-p.quit:
			return
		case it = <-p.inbox:
		}
		if it.op == nil {
			for n := -1; n < len(p.inbox); {
				n = len(p.inbox)
				runtime.Gosched()
			}
		}
		items := []inItem{it}
		for drained := false; !drained; {
			select {
			case more := <-p.inbox:
				items = append(items, more)
			default:
				drained = true
			}
		}
		p.m.inboxOccupancy.Set(float64(len(items) + len(p.inbox)))
		p.consume(items)
	}
}

// consume runs control operations, admits remote frames through
// dedup and the epoch fence, folds the surviving updates as one (and
// the whole chain of self-directed consequences), then acknowledges.
// Each item's updates are folded from its own slice, never copied. The
// dedup table is advanced in the same loop iteration as the fold, so a
// crash can never separate them — anything a sender sees acknowledged
// is part of every later snapshot.
func (p *Peer) consume(items []inItem) {
	var batches [][]p2p.Update
	var acks []*inItem
	for i := range items {
		it := &items[i]
		switch {
		case it.op != nil:
			it.op()
			continue
		case it.cw != nil:
			if !p.admit(it) {
				continue
			}
			acks = append(acks, it)
		}
		if len(it.us) > 0 {
			batches = append(batches, it.us)
		}
	}
	if len(batches) > 0 {
		for next := p.handle(batches...); len(next) > 0; {
			next = p.handle(next)
		}
	}
	for _, it := range acks {
		p.ack(it)
	}
}

// admit decides whether a remote frame folds. A duplicate of a folded
// frame is re-acked and a frame stamped behind this peer's epoch for
// its range is nacked; both report false. An admitted frame advances
// the stream's dedup entry, and the caller acks it once folded.
func (p *Peer) admit(it *inItem) bool {
	key := stream{src: it.from, dest: it.origDest}
	// Dedup strictly before the epoch check: a retransmission of a
	// frame that was folded before the range migrated here must be
	// re-acked, never epoch-nacked — a nack would requeue updates whose
	// originals were already folded. Sequence numbers the epoch fence
	// rejected are exempt: lastSeq may have advanced past them when a
	// later refreshed-epoch frame folded, but their updates never
	// folded, so a retransmission (sent because the nack was lost) must
	// face the fence again rather than be acknowledged as a duplicate.
	_, wasRejected := p.rejected[key][it.seq]
	if it.seq <= p.lastSeq[key] && !wasRejected {
		p.m.dupDropped.Add(1)
		p.ack(it) // re-ack so the sender can discard the frame
		return false
	}
	local := p.epochOf(it.origDest)
	if it.epoch < local {
		// The sender missed an ownership transfer of this key range:
		// reject without folding or advancing dedup. The nack carries our
		// epoch so the sender catches up and re-routes the updates by its
		// refreshed owner table.
		p.m.epochRejected.Add(1)
		p.event(telemetry.EvEpochReject, float64(it.epoch), int64(it.origDest))
		if p.rejected[key] == nil {
			p.rejected[key] = make(map[uint64]struct{})
		}
		p.rejected[key][it.seq] = struct{}{}
		var b [16]byte
		it.cw.write(frameNackEpoch, encodeNackEpoch(b[:0], it.seq, local))
		return false
	}
	if it.epoch > local {
		// We are the ones behind. The frame's epoch proves the transfer
		// that minted it already happened, so adopt the number and fold:
		// an eviction always stops the previous owner before its range
		// migrates, so a higher-epoch frame can never race a live older
		// owner.
		p.adoptEpoch(it.origDest, it.epoch)
	}
	if wasRejected {
		delete(p.rejected[key], it.seq)
		if len(p.rejected[key]) == 0 {
			delete(p.rejected, key)
		}
	}
	if it.seq > p.lastSeq[key] {
		p.lastSeq[key] = it.seq
	}
	return true
}

// handle folds batches as one, ships remote consequences, forwards
// updates for documents that migrated away, and returns the
// self-directed ones for the caller to fold next: the ranker's own
// outbox slot, which only the next handle may be given (see
// p2p.Ranker.Fold).
func (p *Peer) handle(batches ...[]p2p.Update) []p2p.Update {
	n := 0 // a batch may alias the outbox the fold is about to refill
	for _, batch := range batches {
		n += len(batch)
	}
	out, fwd, folded := p.rk.Fold(batches...)
	self := p.ship(out, true)
	if len(fwd) > 0 {
		self = append(self, p.forward(fwd)...)
	}
	// Conservation accounting: only mass actually folded here counts
	// as folded; forwarded mass stays in flight (its origination was
	// already counted by whoever first shipped it).
	p.m.deltaFolded.Add(folded)
	p.m.processed.Add(uint64(n))
	p.event(telemetry.EvFold, folded, int64(n))
	return self
}

// relax sweeps the ranker at push threshold thr, ships what that
// releases, folds the self-directed chain, and returns how many updates
// it released. Processing loop only.
func (p *Peer) relax(thr float64) (released int) {
	out := p.rk.Relax(thr)
	for _, us := range out {
		released += len(us)
	}
	for next := p.ship(out, true); len(next) > 0; {
		next = p.handle(next)
	}
	return released
}

// Relax runs relax as a control operation. It fails when the peer
// shuts down first; the slot's next incarnation sweeps instead.
func (p *Peer) Relax(thr float64) (released int, err error) {
	var n int // written by the loop; read only once control says it is done
	if err := p.control(func() { n = p.relax(thr) }); err != nil {
		return 0, err
	}
	return n, nil
}

// ship routes batches toward their destinations and returns the
// self-directed updates for in-loop processing. The sent counter is
// incremented before anything is queued so the termination probe can
// never observe processed > sent. originated marks freshly minted
// deltas, which count toward the shipped-mass conservation total;
// forwarded mass was counted at its origin.
func (p *Peer) ship(out [][]p2p.Update, originated bool) []p2p.Update {
	var self []p2p.Update
	shipped, n := 0.0, 0
	for slot, us := range out {
		if len(us) == 0 {
			continue
		}
		p.m.sent.Add(uint64(len(us)))
		if originated {
			for _, u := range us {
				shipped += u.Delta
			}
			n += len(us)
		}
		if p2p.PeerID(slot-1) == p.cfg.ID {
			self = us
		}
	}
	p.queueRemote(out)
	if originated && n > 0 {
		p.m.deltaShipped.Add(shipped)
		p.event(telemetry.EvShip, shipped, int64(n))
	}
	return self
}

// forward re-ships updates that arrived for documents this peer does
// not own — they raced an ownership migration. Each is routed to the
// document's current owner; updates the routing table says are ours
// but the fold refused (a transiently inconsistent table) are counted
// in misdropped, which the conservation check treats as lost mass.
func (p *Peer) forward(fwd []p2p.Update) []p2p.Update {
	out, dropped := p.rk.ForwardOut(fwd)
	p.m.misdropped.Add(uint64(dropped)) // no resolvable owner; surfaced in stats
	p.m.forwarded.Add(uint64(len(fwd)))
	return p.ship(out, false)
}

// queueRemote queues an outbox's updates (indexed by PeerID+1) in
// their destinations' retry queues, every one under a single hold of
// rqMu, skipping this peer's own slot. Then it wakes each destination's
// sender if the stream has no frame in flight; a blocked one frames them
// once the reply it awaits is in (DESIGN.md §11). Every enqueue happened
// before blocked is read, which is what the wake rule needs.
func (p *Peer) queueRemote(out [][]p2p.Update) {
	p.rqMu.Lock()
	for slot, us := range out {
		if dest := p2p.PeerID(slot - 1); len(us) > 0 && dest != p.cfg.ID {
			p.rq.DeferMerge(dest, us...)
		}
	}
	p.countMerges()
	p.rqMu.Unlock()
	for slot, us := range out {
		if dest := p2p.PeerID(slot - 1); len(us) > 0 && dest != p.cfg.ID {
			if s := p.sender(stream{src: p.cfg.ID, dest: dest}); !s.blocked() {
				s.wakeUp()
			}
		}
	}
}

// countMerges counts the retry queue's merges since its last call as
// coalesced and processed: a merged delta survives in the entry it
// joined, so one fold accounts for both. The caller owns the queue
// (holds rqMu); every DeferMerge and DrainN is followed by one, so a
// merge counts once.
func (p *Peer) countMerges() {
	if n := p.rq.Merges() - p.merges; n > 0 {
		p.merges += n
		p.m.coalesced.Add(uint64(n))
		p.m.processed.Add(uint64(n))
	}
}

// sender returns (creating on first use) the stream's sender.
func (p *Peer) sender(st stream) *sender {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	s, ok := p.senders[st]
	if !ok {
		s = p.newSender(st)
		p.senders[st] = s
		p.wg.Add(1)
		go s.loop()
	}
	return s
}

func (p *Peer) newSender(st stream) *sender {
	return &sender{
		p:       p,
		strm:    st,
		rng:     rng.New(uint64(uint32(st.src))<<32 ^ uint64(uint32(st.dest)) ^ 0x5bd1e995),
		wake:    make(chan struct{}, 1),
		nextSeq: 1,
	}
}

// UpdateOwnership applies a membership change pushed by the cluster:
// docs now belong to owner, and v is the refreshed membership view
// (departed slots redirected to their successor's address, epochs
// bumped for the ranges the transfer touched). Pending retry-queue
// entries are rerouted to their documents' current owners so updates
// parked for a departed peer chase the documents to wherever they
// migrated.
func (p *Peer) UpdateOwnership(docs []graph.NodeID, owner p2p.PeerID, v View) {
	p.SetView(v)
	p.rk.SetOwner(docs, owner)
	p.reroute(nil, true)
	p.wakeSenders()
}

// reroute re-homes updates by their documents' current owners: us — a nacked
// frame's, which the receiver never folded — and, with queued set,
// everything parked in the retry queue as well, which is how updates
// parked for a departed peer chase its documents. Nothing is re-counted
// as sent: the updates' origination was counted when they first
// shipped. Drain hands the queued ones over unmerged, and whatever
// merges once they are queued again counts as coalesced-and-processed
// like any other merge; those for documents this peer holds, or with
// no resolvable owner, go through the inbox, where handle folds or
// forwards them.
func (p *Peer) reroute(us []p2p.Update, queued bool) {
	var selfUs []p2p.Update
	var owners []p2p.PeerID
	place := func(us []p2p.Update) {
		owners = p.rk.Owners(us, owners[:0])
		for i, u := range us {
			if owner := owners[i]; owner == p.cfg.ID || owner == p2p.NoPeer {
				selfUs = append(selfUs, u)
			} else {
				p.rq.DeferMerge(owner, u)
			}
		}
	}
	p.rqMu.Lock()
	if queued {
		for _, dest := range p.rq.Dests() {
			place(p.rq.Drain(dest))
		}
	}
	place(us)
	dests := p.rq.Dests()
	p.countMerges()
	p.rqMu.Unlock()
	// Every destination holding rerouted updates needs a live sender —
	// the new owner may never have been dialed before.
	for _, dest := range dests {
		p.sender(stream{src: p.cfg.ID, dest: dest}).wakeUp()
	}
	if len(selfUs) > 0 {
		select {
		case p.inbox <- inItem{from: p.cfg.ID, us: selfUs}:
		case <-p.quit:
			// Killed meanwhile, and nobody else holds these: park them as
			// queued for this peer itself, which is how a checkpoint
			// carries self-directed updates (DESIGN.md §13).
			p.rqMu.Lock()
			for _, u := range selfUs {
				p.rq.Defer(p.cfg.ID, u)
			}
			p.rqMu.Unlock()
		}
	}
}

// control runs fn on the processing loop, serialized with folding, and
// returns once it ran, or an error when the peer shuts down first.
//
// fn queues in the inbox behind whatever arrived before it, with no
// priority, and still waits at most one consume: the loop drains the
// whole inbox into each consume, and consume runs every control item
// before it folds the batch it was drained with. So fn runs once the
// consume in progress when it was queued returns (the inbox has room:
// one frame in flight per stream keeps it to about an item per inbound
// stream, against inboxCap). Nor can an admitted frame depend on a
// control operation queued behind it: the frames an Adopt makes
// dedupable here, those redirected to an adopted stream, are dialed
// only after Adopt has returned and the cluster has pushed the view
// that redirects them.
func (p *Peer) control(fn func()) error {
	done := make(chan struct{})
	select {
	case p.inbox <- inItem{op: func() { defer close(done); fn() }}:
		select {
		case <-done:
			return nil
		case <-p.quit:
		}
	case <-p.quit:
	}
	return fmt.Errorf("wire: peer %d is shut down", p.cfg.ID)
}

// Adopt hands a departed peer's durable state to this peer: ranker
// rows for the migrated documents, the per-stream dedup table, parked
// (never-framed) updates, and the departed peer's own unacknowledged
// outbound frames, which this peer takes over retransmitting verbatim
// under their original stream identity. Everything in the snapshot
// moves except its counters, which the cluster keeps in its
// departed-peer accumulators. The call blocks until the processing loop
// has applied the handoff, so by the time it returns any frame
// redirected here dedups correctly.
func (p *Peer) Adopt(s *PeerSnapshot) error {
	if s == nil {
		return fmt.Errorf("wire: nil handoff")
	}
	return p.control(func() {
		p.rk.Adopt(s.Docs, s.Acc, s.Last)
		p.mergeTables(s)
		for _, ob := range s.Outbound {
			if len(ob.Unacked) > 0 {
				p.primeSender(ob)
			}
			// Parked updates re-enter as a plain received batch: they were
			// counted sent by the departed peer, and folding or forwarding
			// them here balances that exactly once.
			for next := slices.Clone(ob.Pending); len(next) > 0; {
				next = p.handle(next)
			}
		}
		// The rows may date from a laxer stage; nobody else sweeps them.
		p.relax(math.Inf(1))
		p.wakeSenders()
	})
}

// mergeTables folds a snapshot's recovery tables into this peer's: the
// ownership epochs and the per-stream dedup entries each keep the
// higher number (fencing and folding only ever raise them), and the
// epoch-rejected sequence numbers are united. It is the one merge
// behind a restart (into a fresh peer's empty tables) and a successor's
// adoption, and must have run before any sender learns an address that
// redirects the snapshot's streams here.
func (p *Peer) mergeTables(s *PeerSnapshot) {
	for i, e := range s.Epochs {
		p.adoptEpoch(p2p.PeerID(i), e)
	}
	for _, e := range s.LastSeq {
		if st := (stream{src: e.Src, dest: e.Dest}); e.Seq > p.lastSeq[st] {
			p.lastSeq[st] = e.Seq
		}
	}
	for _, e := range s.Rejected {
		st := stream{src: e.Src, dest: e.Dest}
		if p.rejected[st] == nil {
			p.rejected[st] = make(map[uint64]struct{})
		}
		p.rejected[st][e.Seq] = struct{}{}
	}
}

// primeSender starts the sender of a checkpointed delivery stream where
// its last owner stopped: same sequence counter, and the frame in
// flight loaded for verbatim retransmission — stream identity and seq
// are preserved, so dedup survives the move, but the frame is
// re-stamped with this peer's current epoch for the range so a
// receiver that moved on can nack it. A stream that already has a
// sender keeps it (a replayed hand-over). The sender sleeps until woken.
func (p *Peer) primeSender(ob OutboundState) {
	st := stream{src: ob.Src, dest: ob.Dest}
	epoch := p.epochOf(st.dest)
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if _, dup := p.senders[st]; dup {
		return
	}
	s := p.newSender(st)
	s.nextSeq = ob.NextSeq
	if len(ob.Unacked) > 0 { // at most one: DecodeSnapshot refuses more
		uf := ob.Unacked[0]
		p2p.SortUpdates(uf.Updates) // in place: an older writer's frame is in queue order
		s.inflight = &frameRec{seq: uf.Seq, epoch: epoch, us: uf.Updates}
		p.m.unackedFrames.Add(1)
	}
	p.senders[st] = s
	p.wg.Add(1)
	go s.loop()
}

// Shed extracts the ranker rows for docs (for handing to a joining
// peer) and atomically repoints this peer's routing table at newOwner.
// The call blocks until the processing loop has applied it, so no fold
// can touch the extracted rows afterwards.
func (p *Peer) Shed(docs []graph.NodeID, newOwner p2p.PeerID) (acc, last []float64, err error) {
	// The loop writes r; it is read only once control says the loop is
	// done with it.
	var r struct {
		acc, last []float64
		err       error
	}
	if err := p.control(func() { r.acc, r.last, r.err = p.rk.Shed(docs, newOwner) }); err != nil {
		return nil, nil, err
	}
	return r.acc, r.last, r.err
}

// sender owns the fault-tolerant outbound path of one delivery stream,
// on one goroutine: it frames pending updates from the retry queue (own
// streams only), writes the frame, awaits the reply on the same
// connection and applies it, then frames the next. A lost connection
// means a redial with exponential backoff and the same frame again,
// verbatim. Adopted streams (src != this peer) only drain their
// inherited frame; once it is acknowledged they idle.
type sender struct {
	p    *Peer
	strm stream
	rng  *rng.Rand // jitter; used only by the sender's own goroutine
	wake chan struct{}

	// mu guards what other goroutines read: conn, which stop closes to
	// unblock the loop, and inflight and nextSeq, which queueRemote reads
	// through blocked. The loop is their only writer once it runs, so it
	// reads them without mu.
	mu   sync.Mutex
	conn net.Conn
	// inflight is the stream's one unacknowledged frame, nil when the
	// next may be built. While it is out, queued deltas coalesce in the
	// retry queue.
	inflight *frameRec
	nextSeq  uint64 // seq assigned to the next newly built frame

	everConn bool // a connection was up before: the next dial is a reconnect

	// buf holds the frame being transmitted, rendered afresh for every
	// (re)transmission and written with one Write.
	buf []byte
	// head is what conn has stated of the stream; zero on a new one, so
	// its first frame states the whole stream.
	head streamHead
}

// frameRec is one framed batch awaiting acknowledgement. It keeps the
// updates themselves, never their encoding: they are never modified
// once the frame exists, so a nack or a checkpoint takes them back as
// they are.
type frameRec struct {
	seq      uint64
	epoch    uint64 // the destination range's epoch when the frame was built
	us       []p2p.Update
	attempts int
}

func (s *sender) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop runs the stream until the peer shuts down: while there is a
// frame to send it connects, sends it and applies the reply, and with
// nothing to send it sleeps until an enqueue or a membership change
// wakes it. A frame in flight is always this goroutine's business —
// being written, awaiting its reply, or waiting out a backoff — so
// nothing else ever needs to wake it.
func (s *sender) loop() {
	defer s.p.wg.Done()
	defer s.hangUp()
	fails := 0
	for {
		select {
		case <-s.p.quit:
			return
		case <-s.wake:
		}
		for fr := s.nextFrame(); fr != nil; fr = s.nextFrame() {
			conn := s.ensureConn(&fails)
			if conn == nil {
				return // shutting down
			}
			if s.send(conn, fr) {
				fails = 0
				continue
			}
			s.hangUp()
			fails++
			if !s.backoff(fails) {
				return
			}
		}
	}
}

// nextFrame returns the frame to transmit: the one in flight, else —
// for streams this peer originates — a fresh frame of the retry queue's
// pending updates, merged and ordered by document (DrainN), or nil when
// none are queued. While a frame is out, updates wait in the retry
// queue, so no delta mass is dropped.
func (s *sender) nextFrame() *frameRec {
	if s.inflight != nil {
		return s.inflight
	}
	p := s.p
	if s.strm.src != p.cfg.ID {
		return nil // adopted stream: only the inherited frame, never fresh ones
	}
	p.rqMu.Lock()
	// DrainN lends the queue's own storage; the frame keeps a copy.
	us := slices.Clone(p.rq.DrainN(s.strm.dest, batchCap))
	p.countMerges()
	p.rqMu.Unlock()
	if len(us) == 0 {
		return nil
	}
	wide := 0
	for _, u := range us {
		if deltaWidth(u.Delta) != 0 {
			wide++
		}
	}
	p.m.updatesWide.Add(uint64(wide))
	// Fresh frames are stamped with the sender's current epoch for the
	// destination key range; a receiver that saw a later ownership
	// transfer of that range nacks the frame instead of folding it.
	fr := &frameRec{seq: s.nextSeq, epoch: p.epochOf(s.strm.dest), us: us}
	s.mu.Lock()
	s.inflight = fr
	s.nextSeq++
	s.mu.Unlock()
	p.m.unackedFrames.Add(1)
	return fr
}

// send writes fr on conn and reads replies until one settles it: the
// ack that covers it, or the nack that withdraws it. A reply for an
// older seq — the second ack of a frame the link duplicated — is
// skipped. false means the connection failed (a write or read error,
// the reply deadline, a frame no sender expects) and fr, still in
// flight, must go out on the next one.
func (s *sender) send(conn net.Conn, fr *frameRec) bool {
	p := s.p
	fr.attempts++
	if fr.attempts > 1 {
		p.m.retries.Add(1)
		p.event(telemetry.EvRetry, float64(fr.seq), int64(s.strm.dest))
	}
	// Latency is measured from transmission start, so a trickling
	// connection (slow writes) shows just like a slow folder on the far
	// side.
	sentAt := time.Now()
	s.buf = appendBatchFrame(reuse(s.buf), &s.head, s.strm.src, s.strm.dest, fr.seq, fr.epoch, fr.us)
	conn.SetWriteDeadline(sentAt.Add(writeTimeout))
	if _, err := conn.Write(s.buf); err != nil {
		return false
	}
	for s.inflight == fr {
		conn.SetReadDeadline(time.Now().Add(ackTimeout))
		typ, payload, err := readFrame(conn)
		if err != nil {
			return false
		}
		switch typ {
		case frameCredit:
			low, err := decodeCredit(payload)
			if err != nil {
				return false
			}
			if s.ack(low) {
				p.m.sendLatency.Observe(time.Since(sentAt).Seconds())
			}
		case frameNackEpoch:
			seq, epoch, err := decodeNackEpoch(payload)
			if err != nil {
				return false
			}
			s.handleNack(seq, epoch)
		default:
			return false
		}
	}
	return true
}

// ensureConn returns the live connection, dialing with backoff until
// one is established. Returns nil only on shutdown. Each attempt
// re-resolves the stream destination's address, so a peer that
// rejoined at a new address — or a departed slot redirected to its
// successor — is found without any extra signalling.
func (s *sender) ensureConn(fails *int) net.Conn {
	if s.conn != nil {
		return s.conn
	}
	for {
		select {
		case <-s.p.quit:
			return nil
		default:
		}
		addr := s.p.peerAddr(s.strm.dest)
		var c net.Conn
		var err error
		if addr == "" {
			err = fmt.Errorf("wire: no address for peer %d", s.strm.dest)
		} else {
			c, err = s.p.cfg.Transport.Dial(s.p.cfg.ID, s.strm.dest, addr)
		}
		if err != nil {
			*fails++
			if !s.backoff(*fails) {
				return nil
			}
			continue
		}
		if s.everConn {
			s.p.m.reconnects.Add(1)
			s.p.event(telemetry.EvReconnect, 0, int64(s.strm.dest))
		}
		s.everConn = true
		s.head = streamHead{}
		s.mu.Lock()
		s.conn = c
		s.mu.Unlock()
		// stop closes quit before it closes the connection it finds: one
		// stored too late for it is closed by the loop on its way out.
		select {
		case <-s.p.quit:
			return nil
		default:
		}
		return c
	}
}

// backoff sleeps backoffDelay; false means the peer is shutting down.
func (s *sender) backoff(fails int) bool {
	select {
	case <-s.p.quit:
		return false
	case <-time.After(backoffDelay(s.rng, fails)):
		return true
	}
}

// hangUp closes and forgets the stream's connection; the frame in
// flight goes out again on the next. Loop only.
func (s *sender) hangUp() {
	c := s.conn
	if c == nil {
		return
	}
	s.mu.Lock()
	s.conn = nil
	s.mu.Unlock()
	c.Close()
}

// interrupt closes the stream's connection from outside the loop, which
// fails a write or reply read in progress there; stop calls it after
// closing quit.
func (s *sender) interrupt() {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// ack discards the frame in flight when the credit names its seq's low
// byte, and reports whether it did. Loop only: the loop frames what
// queued up meanwhile as soon as this returns.
func (s *sender) ack(low byte) bool {
	fr := s.inflight
	if fr == nil || byte(fr.seq) != low {
		return false
	}
	s.release()
	if fr.attempts > 1 {
		s.p.m.redeliveries.Add(1)
	}
	return true
}

// release clears the frame in flight, so the stream may build its next.
func (s *sender) release() {
	s.mu.Lock()
	s.inflight = nil
	s.mu.Unlock()
	s.p.m.unackedFrames.Add(-1)
}

// blocked reports whether a frame is in flight, so no fresh frame may
// be built until its reply frees the stream. Safe from any goroutine.
func (s *sender) blocked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight != nil
}

// handleNack processes a stale-epoch rejection: adopt the receiver's
// epoch for the stream's key range, withdraw exactly the rejected
// frame, and requeue its updates through the current owner table —
// the receiver never folded them, so re-originating them under this
// peer's own streams keeps delivery exactly-once. Loop only. reroute
// may block on a full inbox; that cannot deadlock, because the
// processing loop that drains it never waits on a sender.
func (s *sender) handleNack(seq, epoch uint64) {
	s.p.adoptEpoch(s.strm.dest, epoch)
	fr := s.inflight
	if fr == nil || fr.seq != seq {
		return
	}
	s.release()
	s.p.reroute(fr.us, false)
}
