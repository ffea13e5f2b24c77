// Package core implements the paper's contribution: fully distributed
// pagerank computation by chaotic (asynchronous) iteration.
//
// The engines run the same per-document state machine (Figure 1 of
// the paper):
//
//   - PassEngine reproduces the paper's simulation methodology
//     (section 4.2): all peers compute concurrently from the previous
//     pass's values, messages are exchanged instantaneously between
//     passes, and peers churn between passes.
//   - TimedEngine runs the asynchronous iteration on a simulated
//     network with message timing. It keeps no rank state of its own:
//     each peer is a p2p.Ranker, the kernel the TCP peer in
//     internal/wire folds with, and the engine only delivers batches
//     between them. The live system the paper describes is that TCP
//     cluster (internal/wire).
//
// Both use delta-push accumulation: every document keeps an
// accumulator of received in-link mass, so its rank is always
// (1-d) + acc. When a document's rank moves by more than the relative
// error threshold epsilon, it pushes d*(rank-lastSent)/outdeg to each
// out-link and records what it sent. This is mathematically identical
// to recomputing from in-links (the per-edge contributions sum in the
// accumulator) and needs O(N) state instead of O(E). It is also
// exactly the increment-propagation mechanism of section 4.7, which is
// how document inserts and deletes integrate seamlessly.
package core

import (
	"fmt"
	"math"

	"dpr/internal/graph"
)

// InitialRank is the nominal pagerank assigned to a freshly inserted
// document in the paper's section 4.7 insert experiment (they use
// 1.0). Note that inside the engines every document starts at the
// delta-push fixed-point seed (1-d) — the value a document with no
// in-links converges to — so that documents that never receive a
// message already hold their correct rank.
const InitialRank = 1.0

// DefaultDamping mirrors the classic pagerank damping factor.
const DefaultDamping = 0.85

// DefaultEpsilon is the paper's recommended error threshold: section
// 4.8 concludes 1e-3 is ideal (max error under 1%, low traffic).
const DefaultEpsilon = 1e-3

// Options configures an engine run.
type Options struct {
	Damping  float64 // 0 means DefaultDamping
	Epsilon  float64 // relative-error send threshold; 0 means DefaultEpsilon
	MaxPass  int     // per-Run pass cap for PassEngine; 0 means 10000
	Absolute bool    // use absolute instead of relative error (ablation)

	// Workers sets how many goroutines the PassEngine uses within a
	// pass (Figure 1's "concurrently on all peers"). 0 or 1 is
	// serial; negative means GOMAXPROCS. Results are identical for
	// any worker count.
	Workers int

	// Teleport personalizes the pagerank (topic-sensitive pagerank,
	// Haveliwala WWW 2002 — cited by the paper): document i's
	// constant term becomes (1-d) * N * Teleport[i] / sum(Teleport)
	// instead of the uniform (1-d). Nil means uniform. Must have one
	// non-negative weight per document with a positive sum.
	Teleport []float64
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.MaxPass == 0 {
		o.MaxPass = 10000
	}
	return o
}

func (o Options) validate() error {
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("core: damping %v outside (0,1)", o.Damping)
	}
	if o.Epsilon <= 0 {
		return fmt.Errorf("core: epsilon %v must be positive", o.Epsilon)
	}
	if o.MaxPass < 1 {
		return fmt.Errorf("core: MaxPass %d < 1", o.MaxPass)
	}
	if o.Teleport != nil {
		sum := 0.0
		for i, w := range o.Teleport {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("core: Teleport[%d] = %v invalid", i, w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("core: Teleport weights sum to %v", sum)
		}
	}
	return nil
}

// checkTeleport verifies the teleport vector length against the graph.
func (o Options) checkTeleport(n int) error {
	if o.Teleport != nil && len(o.Teleport) != n {
		return fmt.Errorf("core: Teleport has %d weights for %d documents", len(o.Teleport), n)
	}
	return nil
}

// baseTerms returns each document's constant term: the uniform 1-d, or
// (1-d) * N * Teleport[i] / sum(Teleport) when personalized.
func (o Options) baseTerms(n int) []float64 {
	base := make([]float64, n)
	if o.Teleport == nil {
		for i := range base {
			base[i] = 1 - o.Damping
		}
		return base
	}
	sum := 0.0
	for _, w := range o.Teleport {
		sum += w
	}
	scale := (1 - o.Damping) * float64(n) / sum
	for i, w := range o.Teleport {
		base[i] = scale * w
	}
	return base
}

// state is the PassEngine's per-document chaotic-iteration state.
type state struct {
	g    graph.Linker
	opt  Options
	base []float64 // per-document constant term ((1-d), personalized)
	rank []float64 // current pagerank estimate
	acc  []float64 // received in-link mass; rank = base + acc once computing
	last []float64 // rank value as of the last push (0 before first push)
}

func newState(g graph.Linker, opt Options) *state {
	n := g.NumNodes()
	s := &state{
		g:    g,
		opt:  opt,
		base: opt.baseTerms(n),
		rank: make([]float64, n),
		acc:  make([]float64, n),
		last: make([]float64, n),
	}
	copy(s.rank, s.base)
	return s
}

// exceeds reports whether a move from old to new crosses the
// configured error threshold (relative per Figure 1, absolute under
// the ablation option).
func (s *state) exceeds(old, new float64) bool {
	diff := math.Abs(new - old)
	if s.opt.Absolute {
		return diff > s.opt.Epsilon
	}
	denom := math.Abs(new)
	if denom == 0 {
		denom = 1
	}
	return diff/denom > s.opt.Epsilon
}

// recompute folds the accumulator into document d's rank, returning
// the previous and new values.
func (s *state) recompute(d graph.NodeID) (old, new float64) {
	old = s.rank[d]
	new = s.base[d] + s.acc[d]
	s.rank[d] = new
	return old, new
}

// pendingDelta is the rank change not yet propagated to out-links.
func (s *state) pendingDelta(d graph.NodeID) float64 {
	return s.rank[d] - s.last[d]
}

// markPushed records that d's current rank has been fully propagated.
func (s *state) markPushed(d graph.NodeID) { s.last[d] = s.rank[d] }

// share converts a rank delta at document d into the per-out-link
// contribution d*delta/outdeg.
func (s *state) share(d graph.NodeID, delta float64) float64 {
	return s.opt.Damping * delta / float64(s.g.OutDegree(d))
}

// grow appends one document slot (for dynamic topologies), seeded at
// the no-in-links fixed point.
func (s *state) grow() {
	s.base = append(s.base, 1-s.opt.Damping)
	s.rank = append(s.rank, 1-s.opt.Damping)
	s.acc = append(s.acc, 0)
	s.last = append(s.last, 0)
}
