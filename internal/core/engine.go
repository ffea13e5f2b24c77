package core

import (
	"fmt"
	"math"
	"slices"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// PassStats describes one pass of the PassEngine.
type PassStats struct {
	Pass          int
	InterMsgs     int64   // network messages this pass
	IntraMsgs     int64   // same-peer updates this pass
	Redelivered   int64   // retry-queue messages delivered this pass
	MaxChange     float64 // largest relative rank change observed
	ProcessedDocs int     // documents visited by this pass's compute phase
	PendingDocs   int     // documents with unprocessed mass after the pass
	DeferredQueue int     // retry-queue depth after the pass
	OnlinePeers   int
}

// Result reports a finished distributed computation.
type Result struct {
	Ranks     []float64
	Passes    int
	Converged bool
	Counters  p2p.Counters
}

// PassEngine runs the distributed pagerank algorithm with the paper's
// simulation semantics (section 4.2): per pass, every online peer
// processes its documents using values from the previous pass,
// messages are delivered instantaneously at the pass boundary, and
// peers may churn between passes. Documents on absent peers neither
// compute nor receive; updates destined to them wait in the sender-side
// retry queue (section 3.1).
type PassEngine struct {
	st    *state
	net   *p2p.Network
	churn *p2p.Churn
	retry *p2p.RetryQueue

	// cur is the serial paths' adjacency read cursor (push, maybeInit,
	// FlushPending). Over a graph.Mutable it reads the live topology,
	// inserted documents and edited links included. Chunk workers carry
	// their own in chunkScratch; this one is only touched from the
	// engine's calling goroutine.
	cur graph.LinkCursor

	incoming    []float64 // deltas awaiting the next pass
	dirty       []bool
	initialized []bool
	removed     []bool // deleted documents; mass still in flight to one is dropped

	// dirtyShard[s] lists the dirty documents owned by merge shard s
	// (doc >> shardShift), in first-touch order. Sharding lets the merge
	// phase append lock-free; concatenating the shards in order yields
	// the next pass's work list, independent of the worker count.
	dirtyShard [mergeShards][]graph.NodeID

	// shardShift/shardCount define range sharding: shard s owns the
	// contiguous document range [s<<shardShift, (s+1)<<shardShift).
	// Recomputed when the document range grows; fixed within a pass.
	shardShift uint
	shardCount int

	// pipe holds the sharded pass pipeline's reusable scratch.
	pipe pipeline

	counters      p2p.Counters
	pass          int
	uninitialized int

	// OnPass, when non-nil, runs after every pass with that pass's
	// statistics; returning false stops the computation early.
	OnPass func(PassStats) bool

	// Sink, when non-nil, receives per-pass telemetry: the residual
	// (max |rank change|) and throughput histograms plus pass-boundary
	// trace events. The engine calls it from RunPass only, so a
	// single sink must not be shared between concurrently running
	// engines.
	Sink *telemetry.PassSink

	// Router, when non-nil, prices the network path of every
	// inter-peer message (section 3.2: DHT-routed on first contact,
	// direct once the address is cached). Hops accumulate in
	// Counters().RoutedHops.
	Router p2p.Router

	passInter, passIntra, passRedelivered int64
	passMaxChange                         float64
}

// NewPassEngine creates an engine over graph g with documents already
// placed on net. churn may be nil for a fully available network.
func NewPassEngine(g graph.Linker, net *p2p.Network, churn *p2p.Churn, opt Options) (*PassEngine, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := opt.checkTeleport(g.NumNodes()); err != nil {
		return nil, err
	}
	for d := 0; d < g.NumNodes(); d++ {
		if net.PeerOf(graph.NodeID(d)) == p2p.NoPeer {
			return nil, fmt.Errorf("core: document %d is not placed on any peer", d)
		}
	}
	n := g.NumNodes()
	e := &PassEngine{
		st:          newState(g, opt),
		cur:         graph.CursorFor(g),
		net:         net,
		churn:       churn,
		retry:       p2p.NewRetryQueue(),
		incoming:    make([]float64, n),
		dirty:       make([]bool, n),
		initialized: make([]bool, n),
		removed:     make([]bool, n),
	}
	e.uninitialized = n
	e.setShardRange(n)
	// Pre-size the pipeline's first-pass hot buffers: the shard dirty
	// lists together span all documents, and the work list snapshot can
	// hold all of them. This front-loads ~shardCount allocations that
	// append-doubling would otherwise repay on every fresh engine.
	width := 1 << e.shardShift
	for s := 0; s < e.shardCount; s++ {
		c := width
		if rem := n - s*width; rem < c {
			c = rem
		}
		e.dirtyShard[s] = make([]graph.NodeID, 0, c)
	}
	e.pipe.work = make([]graph.NodeID, 0, n)
	return e, nil
}

// setShardRange fits the fixed shard array over n documents: the
// smallest power-of-two range width such that mergeShards shards cover
// everything. Documents appended to a shard list under an older (finer)
// mapping are still drained by the next work-list snapshot, which walks
// every list regardless of the current mapping.
func (e *PassEngine) setShardRange(n int) {
	shift := uint(0)
	for n > mergeShards<<shift {
		shift++
	}
	e.shardShift = shift
	e.shardCount = (n + (1 << shift) - 1) >> shift
	if e.shardCount < 1 {
		e.shardCount = 1
	}
}

// Ranks returns the current rank estimates (live view; copy before
// mutating the engine further).
func (e *PassEngine) Ranks() []float64 { return e.st.rank }

// Pass returns the number of passes executed so far.
func (e *PassEngine) Pass() int { return e.pass }

// Counters exposes the accumulated message statistics.
func (e *PassEngine) Counters() p2p.Counters { return e.counters }

// RetryQueueLen returns the current sender-side deferred-message count.
func (e *PassEngine) RetryQueueLen() int { return e.retry.Len() }

// deliver routes one update from a peer: free within the peer, a
// counted network message across peers, deferred when the destination
// peer is absent.
func (e *PassEngine) deliver(fromPeer p2p.PeerID, u p2p.Update) {
	destPeer := e.net.PeerOf(u.Doc)
	switch {
	case destPeer == fromPeer:
		e.passIntra++
		e.applyIncoming(u)
	case e.net.Online(destPeer):
		e.passInter++
		if e.Router != nil {
			e.counters.RoutedHops += int64(e.Router.Hops(fromPeer, u.Doc))
		}
		e.applyIncoming(u)
	default:
		e.counters.Deferred++
		e.retry.Defer(destPeer, u)
	}
}

func (e *PassEngine) applyIncoming(u p2p.Update) {
	e.incoming[u.Doc] += u.Delta
	if !e.dirty[u.Doc] {
		e.dirty[u.Doc] = true
		s := int(u.Doc) >> e.shardShift
		e.dirtyShard[s] = append(e.dirtyShard[s], u.Doc)
	}
}

// pendingDocs counts documents with unprocessed incoming mass.
func (e *PassEngine) pendingDocs() int {
	n := 0
	for s := range e.dirtyShard {
		n += len(e.dirtyShard[s])
	}
	return n
}

// push propagates document d's unsent rank change to its out-links.
func (e *PassEngine) push(d graph.NodeID) {
	links := e.cur.OutLinks(d)
	if len(links) == 0 {
		e.st.markPushed(d)
		return
	}
	share := e.st.share(d, e.st.pendingDelta(d))
	if share == 0 {
		e.st.markPushed(d)
		return
	}
	fromPeer := e.net.PeerOf(d)
	for _, t := range links {
		e.deliver(fromPeer, p2p.Update{Doc: t, Delta: share})
	}
	e.st.markPushed(d)
}

// RunPass executes one pass and returns its statistics.
func (e *PassEngine) RunPass() PassStats {
	e.pass++
	e.passInter, e.passIntra, e.passRedelivered, e.passMaxChange = 0, 0, 0, 0
	if e.Sink != nil {
		e.Sink.PassStart(e.pass, e.pendingDocs())
	}
	if e.churn != nil {
		e.churn.Step()
	}

	// Absent peers returned: deliver their queued updates first, so
	// this pass's computation sees them (they were sent in an earlier
	// pass).
	e.passRedelivered = int64(e.retry.DrainOnline(e.net, func(dest p2p.PeerID, u p2p.Update) {
		if e.removed[u.Doc] {
			return
		}
		e.passInter++
		e.applyIncoming(u)
	}))

	// Snapshot the work list before any sends this pass: messages
	// generated below (initial pushes and propagation) are delivered
	// at the pass boundary, i.e. processed next pass. Redelivered
	// retry traffic above was sent in an earlier pass, so it is
	// visible now. The list is rebuilt in ascending document order
	// into a pass-reused buffer: chunk workers then sweep adjacency in
	// document order, so positional cursors (internal/csr) skip ahead
	// from the last document read instead of from the start of its
	// block, and the plain representation gets sequential access too.
	// Dense passes (the common early ones)
	// read the order straight off the dirty flags with one sequential
	// scan; sparse passes sort the per-shard lists, whose shard-major
	// concatenation is the same ascending order. Both are
	// deterministic and worker-count independent, so the determinism
	// contract is unaffected.
	work := e.pipe.work[:0]
	if e.pendingDocs() >= len(e.dirty)/16 {
		for d, isDirty := range e.dirty {
			if isDirty {
				work = append(work, graph.NodeID(d))
			}
		}
		for s := range e.dirtyShard {
			e.dirtyShard[s] = e.dirtyShard[s][:0]
		}
	} else {
		for s := range e.dirtyShard {
			slices.Sort(e.dirtyShard[s])
			work = append(work, e.dirtyShard[s]...)
			e.dirtyShard[s] = e.dirtyShard[s][:0]
		}
	}
	e.pipe.work = work

	// Documents appearing for the first time push their starting
	// rank; docs whose peer was offline initialize when they first
	// show up online.
	if e.uninitialized > 0 {
		for d := 0; d < len(e.initialized); d++ {
			if !e.initialized[d] {
				e.maybeInit(graph.NodeID(d))
			}
		}
	}
	// Process accumulated mass: compute every snapshot document's new
	// rank, collecting the resulting update messages, then deliver
	// them all at the pass boundary — so no document ever consumes a
	// message sent within the same pass (the paper's instantaneous-
	// delivery-between-passes model). The same collect-then-merge path
	// serves one worker or many; results are identical either way.
	e.runPassParallel(work, defaultWorkers(e.st.opt.Workers))

	e.counters.InterPeerMsgs += e.passInter
	e.counters.IntraPeerMsgs += e.passIntra
	e.counters.Redelivered += e.passRedelivered
	e.counters.Passes = e.pass
	if e.Sink != nil {
		e.Sink.RecordPass(e.pass, e.passMaxChange, len(work), e.retry.Len())
	}
	return PassStats{
		Pass:          e.pass,
		InterMsgs:     e.passInter,
		IntraMsgs:     e.passIntra,
		Redelivered:   e.passRedelivered,
		MaxChange:     e.passMaxChange,
		ProcessedDocs: len(work),
		PendingDocs:   e.pendingDocs(),
		DeferredQueue: e.retry.Len(),
		OnlinePeers:   e.net.NumOnline(),
	}
}

// maybeInit performs a document's very first action: pushing its
// starting rank (1-d, the no-in-links fixed point) to its out-links,
// if its peer is present.
func (e *PassEngine) maybeInit(d graph.NodeID) {
	if e.initialized[d] || e.removed[d] || !e.net.DocOnline(d) {
		return
	}
	e.initialized[d] = true
	e.uninitialized--
	e.push(d) // pendingDelta is the full starting rank (1-d)
}

// FlushPending re-evaluates every document's un-propagated rank delta
// against the engine's current threshold and pushes those that exceed
// it. After restoring a checkpoint taken at a looser epsilon, this is
// what resumes refinement: the sub-threshold residuals the loose run
// was allowed to keep become super-threshold under the tighter one.
// It returns the number of documents that pushed.
func (e *PassEngine) FlushPending() int {
	pushed := 0
	for d := 0; d < e.st.g.NumNodes(); d++ {
		id := graph.NodeID(d)
		if e.removed[d] || !e.initialized[d] {
			continue
		}
		if e.st.pendingDelta(id) != 0 && e.st.exceeds(e.st.last[d], e.st.rank[d]) {
			e.push(id)
			pushed++
		}
	}
	e.counters.InterPeerMsgs += e.passInter
	e.counters.IntraPeerMsgs += e.passIntra
	e.passInter, e.passIntra = 0, 0
	return pushed
}

// Converged reports whether the computation has quiesced: every
// live document initialized, no pending mass, and no deferred
// messages. (Removing a document counts it as initialized.)
func (e *PassEngine) Converged() bool {
	return e.pendingDocs() == 0 && e.retry.Len() == 0 && e.uninitialized == 0
}

// Run executes passes until convergence or until MaxPass passes have
// run in this invocation, returning the final ranks and statistics.
// Each Run call gets a fresh pass budget, so a computation resumed
// after churn recovery or incremental document changes is never
// starved by earlier passes.
func (e *PassEngine) Run() Result {
	start := e.pass
	for e.pass-start < e.st.opt.MaxPass {
		stats := e.RunPass()
		if e.OnPass != nil && !e.OnPass(stats) {
			break
		}
		if e.Converged() {
			break
		}
	}
	return Result{
		Ranks:     e.st.rank,
		Passes:    e.pass,
		Converged: e.Converged(),
		Counters:  e.counters,
	}
}

func relChange(old, new float64) float64 {
	denom := math.Abs(new)
	if denom == 0 {
		denom = 1
	}
	return math.Abs(new-old) / denom
}
