package engine

import (
	"math"

	"dpr/internal/core"
	"dpr/internal/p2p"
)

func init() {
	// Figure 1 as the paper states it: one push threshold, ε, from the start.
	Register("chaotic", func(cfg Config) (Engine, error) { return newRankerEngine("chaotic", cfg, 0) })
	// The same kernel under the staged threshold the socket runs.
	Register("diffusion", func(cfg Config) (Engine, error) {
		return newRankerEngine("diffusion", cfg, p2p.StartThreshold(cfg.Opt.Epsilon))
	})
}

// rankerEngine drives one p2p.Ranker per peer — the fold the TCP peer
// and core's timed engine run — on a single goroutine, in
// rounds. A Step is one round: peers in ascending id fold what their
// inbox holds, and each fold's outbox goes into its destinations'
// inboxes at once, so a later peer meets it in the same round
// (Gauss-Seidel; delivering at the round boundary takes about twice
// the rounds). A round that leaves every inbox empty relaxes every
// ranker one p2p.NextThreshold step down, or at ε ends the run. Any
// bounded-delay order reaches the same fixed point (Kollias,
// Gallopoulos & Szyld, PAPERS.md), so this order is the driver's and
// the fold never knows it.
//
// The two registrations differ in the threshold the rankers start at
// and in nothing else: "chaotic" at ε, "diffusion" at
// p2p.StartThreshold.
//
// Residual semantics: (un-pushed + in-flight mass) / ((1-d)·N). Summed
// in the 1-norm that is D-Iteration's bound on the distance to the
// fixed point, so the residual is never below the mean absolute rank
// error; it starts at 1 and only falls, since a fold moves mass from
// an inbox to a row and a push puts back d times what it clears.
type rankerEngine struct {
	name    string
	n       int
	damping float64
	eps     float64
	thr     float64 // the rankers' push threshold

	rankers []*p2p.Ranker
	inbox   [][]p2p.Update
	spare   []p2p.Update // the last folded batch's storage, the next inbox
	pending int          // updates in all inboxes

	ranks    []float64 // Ranks' vector, refilled on each call
	counters p2p.Counters
	sink     sinkRecorder
	step     int
}

func newRankerEngine(name string, cfg Config, start float64) (Engine, error) {
	if err := requireStatic(name, cfg); err != nil {
		return nil, err
	}
	opt := cfg.Opt
	if opt.Damping == 0 {
		opt.Damping = core.DefaultDamping
	}
	if opt.Epsilon == 0 {
		opt.Epsilon = core.DefaultEpsilon
	}
	rankers, err := core.NewRankers(cfg.Graph, cfg.Net, opt, start)
	if err != nil {
		return nil, err
	}
	return &rankerEngine{
		name:    name,
		n:       cfg.Graph.NumNodes(),
		damping: opt.Damping,
		eps:     opt.Epsilon,
		thr:     max(opt.Epsilon, start),
		rankers: rankers,
		inbox:   make([][]p2p.Update, len(rankers)),
		ranks:   make([]float64, cfg.Graph.NumNodes()),
		sink:    sinkRecorder{sink: cfg.Sink},
	}, nil
}

func (e *rankerEngine) Name() string { return e.name }

// deliver appends peer self's outbox (slot PeerID+1 per destination) to
// the destinations' inboxes, copying: the next fold refills the outbox.
func (e *rankerEngine) deliver(self int, out [][]p2p.Update) {
	for slot, us := range out {
		if len(us) == 0 {
			continue
		}
		e.inbox[slot-1] = append(e.inbox[slot-1], us...)
		e.pending += len(us)
		if slot-1 == self {
			e.counters.IntraPeerMsgs += int64(len(us))
		} else {
			e.counters.InterPeerMsgs += int64(len(us))
		}
	}
}

func (e *rankerEngine) Step() StepStats {
	if e.Converged() {
		return StepStats{Step: e.step, Residual: e.Residual(), Done: true}
	}
	msgs0, work0 := e.counters.InterPeerMsgs, e.recomputed()
	if e.step == 0 {
		// The "At time = 0" block of Figure 1.
		for p, rk := range e.rankers {
			e.deliver(p, rk.InitialOut())
		}
	}
	e.step++
	e.sink.start(e.step, e.pending)
	for p, rk := range e.rankers {
		batch := e.inbox[p]
		if len(batch) == 0 {
			continue
		}
		e.inbox[p], e.pending = e.spare[:0], e.pending-len(batch)
		// Placement is static, so the fold refuses nothing.
		out, _, _ := rk.Fold(batch)
		e.deliver(p, out)
		e.spare = batch
	}
	for e.pending == 0 && e.thr > e.eps {
		e.thr = p2p.NextThreshold(e.thr, e.eps)
		for p, rk := range e.rankers {
			e.deliver(p, rk.Relax(e.thr))
		}
	}
	e.counters.Passes = e.step
	res, work := e.Residual(), e.recomputed()-work0
	e.sink.record(e.step, res, int(work))
	return StepStats{
		Step:      e.step,
		Residual:  res,
		Processed: work,
		Messages:  e.counters.InterPeerMsgs - msgs0,
		Done:      e.Converged(),
	}
}

// recomputed is the rankers' cumulative document recomputes.
func (e *rankerEngine) recomputed() (n int64) {
	for _, rk := range e.rankers {
		n += rk.Recomputed()
	}
	return n
}

// inFlight sums what the inboxes hold: signed it is mass on its way to
// an accumulator, absolute it is the in-flight term of the residual.
func (e *rankerEngine) inFlight() (signed, abs float64) {
	for _, box := range e.inbox {
		for _, u := range box {
			signed += u.Delta
			abs += math.Abs(u.Delta)
		}
	}
	return signed, abs
}

func (e *rankerEngine) Ranks() []float64 {
	for _, rk := range e.rankers {
		rk.RanksInto(e.ranks)
	}
	return e.ranks
}

func (e *rankerEngine) Residual() float64 {
	_, sum := e.inFlight()
	for _, rk := range e.rankers {
		sum += rk.Unpushed()
	}
	return sum / ((1 - e.damping) * float64(e.n))
}

// Converged reports quiescence at ε: a round ends with every inbox
// empty only when no threshold is left to relax to.
func (e *rankerEngine) Converged() bool { return e.step > 0 && e.pending == 0 }

func (e *rankerEngine) Counters() p2p.Counters { return e.counters }

// MassBalance sets the mass folded into accumulators plus the mass
// still in an inbox against the mass shipped.
func (e *rankerEngine) MassBalance() (got, want float64) {
	got, _ = e.inFlight()
	for _, rk := range e.rankers {
		folded, shipped := rk.MassBalance()
		got, want = got+folded, want+shipped
	}
	return got, want
}

var _ MassAccountant = (*rankerEngine)(nil)
