package core

import (
	"fmt"
	"slices"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/simnet"
)

// TimedEngine replays the chaotic iteration on a discrete-event
// network simulation with real message timing: per-peer uplinks with
// finite bandwidth and latency, serialized transmission (the paper's
// Equation 4 assumption), per-update compute cost, and per-destination
// batching ("the peers collect together all the pagerank messages for
// each other generated during one pass into a single message"). The
// run ends when the event queue drains at push threshold ε — natural
// quiescence — and the simulated clock then reads the computation's
// execution time, which the paper could only estimate analytically.
//
// A reproduction insight: under the paper's Figure 1 test (two
// successive recomputes differ by more than ε) this engine sent 2-4x the
// pass engine's messages — a hub's in-link mass arrives staggered, and
// each sufficiently large piece fired a push of its own. With
// p2p.Ranker's residual test and a threshold relaxed each time the
// event queue drains it sends 0.6x (EXPERIMENTS.md). The processInterval
// window trades latency for batch economy; the paper's per-pass
// batching is the limit of a long one.
type TimedEngine struct {
	opt TimedOptions
	n   int

	// rankers holds one per-peer state machine — the kernel the TCP
	// peer runs (p2p.Ranker). The engine only prices and delivers the
	// batches between them.
	rankers []*p2p.Ranker

	sim     simnet.Sim
	uplinks []*simnet.Uplink
	peers   []timedPeer

	interMsgs, intraMsgs int64
}

// timedPeer is one peer's event-loop state: an inbox coalescing all
// updates that arrive while the peer is between processing ticks, so
// that they share one recompute and one batch per destination — the
// behaviour of a real event-loop peer (and of the paper's per-pass
// batching).
type timedPeer struct {
	inbox     []p2p.Update
	scheduled bool
}

// The timed engine's compute and batching costs.
const (
	// computePerUpdate is the processing cost of one received update.
	computePerUpdate = time.Microsecond

	// batchHeaderBytes is the fixed per-batch wire overhead; each
	// update adds p2p.UpdateWireBytes (24).
	batchHeaderBytes = 64

	// processInterval is how often a peer's event loop drains its
	// inbox; arrivals within a tick coalesce into one recompute.
	processInterval = 10 * time.Millisecond
)

// TimedOptions extends Options with the network/compute cost model.
type TimedOptions struct {
	Options

	// Bandwidth is each peer's uplink rate in bytes/second.
	// 0 means the paper's conservative 32 KB/s.
	Bandwidth float64

	// Latency is the per-message propagation delay. 0 means 50 ms
	// (a wide-area round trip's worth); use a negative value for a
	// true zero-latency network.
	Latency time.Duration

	// MaxEvents aborts runaway simulations. 0 means unlimited.
	MaxEvents int64
}

func (o TimedOptions) withDefaults() TimedOptions {
	if o.Bandwidth == 0 {
		o.Bandwidth = 32 * 1024
	}
	if o.Latency == 0 {
		o.Latency = 50 * time.Millisecond
	}
	if o.Latency < 0 {
		o.Latency = 0
	}
	return o
}

// TimedResult extends Result with the simulation's timing outputs.
type TimedResult struct {
	Result
	SimulatedTime time.Duration // clock at quiescence
	Batches       int64         // peer-to-peer batch transmissions
	BytesSent     int64         // total wire bytes
	Events        int64         // simulator events fired
}

// NewTimedEngine builds a timed engine over placed documents.
func NewTimedEngine(g graph.Linker, net *p2p.Network, opt TimedOptions) (*TimedEngine, error) {
	opt.Options = opt.Options.withDefaults()
	opt = opt.withDefaults()
	if opt.Bandwidth < 0 {
		return nil, fmt.Errorf("core: negative bandwidth")
	}
	rankers, err := NewRankers(g, net, opt.Options, p2p.StartThreshold(opt.Epsilon))
	if err != nil {
		return nil, err
	}
	e := &TimedEngine{opt: opt, n: g.NumNodes(), rankers: rankers}
	e.uplinks = make([]*simnet.Uplink, len(rankers))
	e.peers = make([]timedPeer, len(rankers))
	for i := range e.uplinks {
		e.uplinks[i] = &simnet.Uplink{Bandwidth: opt.Bandwidth, Latency: opt.Latency}
	}
	return e, nil
}

// Run executes the simulation to quiescence, one threshold stage a drain.
func (e *TimedEngine) Run() (TimedResult, error) {
	// At t=0 every peer pushes its documents' starting ranks.
	for p, rk := range e.rankers {
		e.sim.After(0, func() { e.transmit(p2p.PeerID(p), rk.InitialOut()) })
	}
	end, err := e.sim.Run(e.opt.MaxEvents)
	for thr := p2p.StartThreshold(e.opt.Epsilon); err == nil && thr > e.opt.Epsilon; {
		thr = p2p.NextThreshold(thr, e.opt.Epsilon)
		for p, rk := range e.rankers {
			e.transmit(p2p.PeerID(p), rk.Relax(thr))
		}
		end, err = e.sim.Run(e.opt.MaxEvents)
	}
	if err != nil {
		return TimedResult{}, err
	}
	var bytes, batches int64
	for _, u := range e.uplinks {
		b, s, _ := u.Stats()
		bytes += b
		batches += s
	}
	return TimedResult{
		Result: Result{
			Ranks:     gatherRanks(e.rankers, e.n),
			Converged: true,
			Counters: p2p.Counters{
				InterPeerMsgs: e.interMsgs,
				IntraPeerMsgs: e.intraMsgs,
			},
		},
		SimulatedTime: end,
		Batches:       batches,
		BytesSent:     bytes,
		Events:        e.sim.Events(),
	}, nil
}

// handleBatch enqueues a delivered batch into the peer's inbox and
// arms the next processing tick if none is pending.
func (e *TimedEngine) handleBatch(self p2p.PeerID, batch []p2p.Update) {
	ps := &e.peers[self]
	ps.inbox = append(ps.inbox, batch...)
	if !ps.scheduled {
		ps.scheduled = true
		e.sim.After(processInterval, func() { e.processTick(self) })
	}
}

// processTick drains everything that arrived since the last tick, pays
// the compute cost, folds the coalesced mass, recomputes each touched
// document once, and pushes the results onward.
func (e *TimedEngine) processTick(self p2p.PeerID) {
	ps := &e.peers[self]
	batch := ps.inbox
	ps.inbox = nil
	ps.scheduled = false
	if len(batch) == 0 {
		return
	}
	compute := time.Duration(len(batch)) * computePerUpdate
	e.sim.After(compute, func() {
		// Placement is static, so the fold refuses nothing. It folds in
		// arrival order, which keeps the whole simulation reproducible
		// bit for bit.
		out, _, _ := e.rankers[self].Fold(batch)
		e.transmit(self, out)
	})
}

// transmit ships a ranker's outbox (slot PeerID+1 per destination), in
// destination order: local batches cost only compute; remote batches
// serialize through the sender's uplink. Each batch is copied, since it
// is delivered after the ranker's next fold may have refilled the
// outbox.
func (e *TimedEngine) transmit(self p2p.PeerID, out [][]p2p.Update) {
	for slot, us := range out {
		if len(us) == 0 {
			continue
		}
		dest, batch := p2p.PeerID(slot-1), slices.Clone(us)
		if dest == self {
			e.intraMsgs += int64(len(batch))
			e.sim.After(0, func() { e.handleBatch(dest, batch) })
			continue
		}
		e.interMsgs += int64(len(batch))
		size := batchHeaderBytes + int64(len(batch))*p2p.UpdateWireBytes
		e.uplinks[self].Send(&e.sim, size, func() { e.handleBatch(dest, batch) })
	}
}
