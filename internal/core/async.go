package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// AsyncEngine is the live chaotic-iteration system the paper
// describes: one goroutine per peer, pagerank update messages flowing
// over channels with no global synchronization of any kind. Peers
// process whatever has arrived, push the resulting rank changes, and
// go idle; the run ends when the whole network quiesces.
//
// Termination uses credit counting (in the style of Dijkstra-Scholten):
// every message increments an in-flight counter before it is enqueued
// and decrements it only after the receiving peer has processed it and
// sent all consequent messages. The counter reaching zero therefore
// proves global quiescence — of one push-threshold stage: Run relaxes
// every ranker to the next, and quiescence at ε ends it. The engine
// assumes a fully available network; churn experiments use the
// PassEngine, whose pass boundary is where the paper's leave/join model
// is defined.
type AsyncEngine struct {
	g       graph.Linker
	epsilon float64

	// rankers holds one per-peer state machine — the kernel the TCP
	// peer runs (p2p.Ranker). The engine only delivers batches between
	// them and counts credit.
	rankers []*p2p.Ranker

	boxes    []*mailbox
	inflight atomic.Int64
	quiet    chan struct{} // one token each time inflight reaches zero

	interMsgs atomic.Int64
	intraMsgs atomic.Int64
	batches   atomic.Int64
}

// mailbox is an unbounded, mutex-guarded message queue with a edge-
// triggered wakeup channel, so senders never block (a blocked sender
// holding messages for a blocked receiver would deadlock the ring).
type mailbox struct {
	mu     sync.Mutex
	buf    []p2p.Update
	wakeup chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{wakeup: make(chan struct{}, 1)}
}

func (m *mailbox) put(us []p2p.Update) {
	m.mu.Lock()
	m.buf = append(m.buf, us...)
	m.mu.Unlock()
	select {
	case m.wakeup <- struct{}{}:
	default:
	}
}

func (m *mailbox) drain() []p2p.Update {
	m.mu.Lock()
	us := m.buf
	m.buf = nil
	m.mu.Unlock()
	return us
}

// NewRankers validates opt and the placement and builds one p2p.Ranker
// per peer at push threshold start (ε when start is below it) — what the
// asynchronous engines here and the round driver in internal/engine
// deliver batches between. Each ranker reads adjacency through a cursor
// of its own (compressed representations decode into per-cursor buffers,
// so sharing one across goroutines would race).
func NewRankers(g graph.Linker, net *p2p.Network, opt Options, start float64) ([]*p2p.Ranker, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := opt.checkTeleport(g.NumNodes()); err != nil {
		return nil, err
	}
	docPeer := make([]p2p.PeerID, g.NumNodes())
	for d := range docPeer {
		if docPeer[d] = net.PeerOf(graph.NodeID(d)); docPeer[d] == p2p.NoPeer {
			return nil, fmt.Errorf("core: document %d is not placed on any peer", d)
		}
	}
	base := opt.baseTerms(g.NumNodes())
	rankers := make([]*p2p.Ranker, net.NumPeers())
	for p := range rankers {
		rankers[p] = p2p.NewRanker(p2p.PeerID(p), graph.CursorFor(g), net.Docs(p2p.PeerID(p)), docPeer,
			base, opt.Damping, opt.Epsilon, start, opt.Absolute, new(telemetry.Gauge))
	}
	return rankers, nil
}

// gatherRanks assembles the rank vector from the rankers' rows.
func gatherRanks(rankers []*p2p.Ranker, n int) []float64 {
	ranks := make([]float64, n)
	for _, rk := range rankers {
		rk.RanksInto(ranks)
	}
	return ranks
}

// NewAsyncEngine creates a live engine over graph g with documents
// already placed on net.
func NewAsyncEngine(g graph.Linker, net *p2p.Network, opt Options) (*AsyncEngine, error) {
	opt = opt.withDefaults()
	rankers, err := NewRankers(g, net, opt, p2p.StartThreshold(opt.Epsilon))
	if err != nil {
		return nil, err
	}
	e := &AsyncEngine{g: g, epsilon: opt.Epsilon, rankers: rankers, quiet: make(chan struct{}, 1)}
	e.boxes = make([]*mailbox, len(rankers))
	for i := range e.boxes {
		e.boxes[i] = newMailbox()
	}
	return e, nil
}

// Run starts one goroutine per peer, lets the chaotic iteration play
// out, and returns the converged ranks. It blocks until quiescence.
func (e *AsyncEngine) Run() Result {
	numPeers := len(e.rankers)
	quit := make(chan struct{})
	var wg sync.WaitGroup

	// Seed credit: each peer owes one unit for its initial push.
	e.inflight.Store(int64(numPeers))

	wg.Add(numPeers)
	for p := 0; p < numPeers; p++ {
		go e.peerLoop(p2p.PeerID(p), quit, &wg)
	}
	<-e.quiet
	for thr := p2p.StartThreshold(e.epsilon); thr > e.epsilon; <-e.quiet {
		thr = p2p.NextThreshold(thr, e.epsilon)
		// The sweep's own credit: no zero before the last peer's pushes are out.
		e.addCredit(1)
		for p, rk := range e.rankers {
			e.send(p2p.PeerID(p), rk.Relax(thr))
		}
		e.settleCredit(1)
	}
	close(quit)
	wg.Wait()

	return Result{
		Ranks:     e.Ranks(),
		Passes:    0, // asynchronous: there is no pass structure
		Converged: true,
		Counters: p2p.Counters{
			InterPeerMsgs: e.interMsgs.Load(),
			IntraPeerMsgs: e.intraMsgs.Load(),
		},
	}
}

// Batches returns the number of peer-to-peer batch transmissions, the
// unit the execution-time model's "one network call per peer" transfer
// assumption is based on.
func (e *AsyncEngine) Batches() int64 { return e.batches.Load() }

// credit bookkeeping: add before enqueue, settle after processing.
func (e *AsyncEngine) addCredit(n int) { e.inflight.Add(int64(n)) }
func (e *AsyncEngine) settleCredit(n int) {
	if e.inflight.Add(-int64(n)) == 0 {
		e.quiet <- struct{}{}
	}
}

// peerLoop is one peer's behaviour: an initial push of every local
// document's starting rank, then an event loop folding arriving update
// messages exactly as Figure 1 prescribes.
func (e *AsyncEngine) peerLoop(self p2p.PeerID, quit <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rk := e.rankers[self]

	// Initial push (the "At time = 0" block of Figure 1).
	e.send(self, rk.InitialOut())
	e.settleCredit(1) // the seed unit for this peer's initial work

	box := e.boxes[self]
	for {
		select {
		case <-quit:
			return
		case <-box.wakeup:
			us := box.drain()
			if len(us) == 0 {
				continue
			}
			// Placement is static, so the fold refuses nothing.
			out, _, _ := rk.Fold(us)
			e.send(self, out)
			e.settleCredit(len(us))
		}
	}
}

// send transmits a ranker's outbox (slot PeerID+1 per destination).
// Same-peer updates loop back through the peer's own mailbox so all
// processing shares one path; they are counted as intra-peer (free)
// messages. The mailbox copies, so the outbox may be refilled by the
// next fold.
func (e *AsyncEngine) send(self p2p.PeerID, out [][]p2p.Update) {
	for slot, us := range out {
		if len(us) == 0 {
			continue
		}
		dest := p2p.PeerID(slot - 1)
		e.addCredit(len(us))
		e.boxes[dest].put(us)
		if dest == self {
			e.intraMsgs.Add(int64(len(us)))
		} else {
			e.interMsgs.Add(int64(len(us)))
			e.batches.Add(1)
		}
	}
}
