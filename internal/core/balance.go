package core

// Rank-mass conservation accounting for the engine seam
// (internal/engine): in the delta-push scheme every unit of mass a
// document j has ever shipped equals d*last[j] (last accumulates from
// 0 to the current rank, and each push ships d*(rank-last) spread over
// the out-links; dangling documents ship nothing). Every unit received
// sits in exactly one of: the folded accumulator, the not-yet-folded
// incoming buffer, or the sender-side retry queue. The two totals
// therefore agree up to float rounding at any pass boundary; a
// lost or duplicated update breaks the balance. This is the in-memory
// analogue of the wire layer's DeltaShipped == DeltaFolded audit.

// MassBalance returns the folded-side and shipped-side rank-mass
// accounts at a pass boundary. Exact bookkeeping keeps them equal up
// to float rounding (the property suite allows a relative 1e-9).
// Document removal intentionally drops in-flight mass, so the
// identity only holds for runs without deletes.
func (e *PassEngine) MassBalance() (folded, shipped float64) {
	for d := range e.incoming {
		folded += e.st.acc[d] + e.incoming[d]
	}
	folded += e.retry.Mass()
	for d := 0; d < e.st.g.NumNodes(); d++ {
		if e.st.g.OutDegree(int32(d)) > 0 {
			shipped += e.st.opt.Damping * e.st.last[d]
		}
	}
	return folded, shipped
}

// LastResidual returns the most recent pass's maximum relative rank
// change — the engine's convergence residual, the same quantity
// PassStats.MaxChange reports and the telemetry sink records.
func (e *PassEngine) LastResidual() float64 { return e.passMaxChange }

// MassBalance is the AsyncEngine's conservation audit. It is only
// meaningful at quiescence (after Run returns): mid-run, mass in
// mailboxes is on neither side of the ledger.
func (e *AsyncEngine) MassBalance() (folded, shipped float64) {
	for _, rk := range e.rankers {
		f, s := rk.MassBalance()
		folded, shipped = folded+f, shipped+s
	}
	return folded, shipped
}

// ProcessedDocs returns the cumulative number of document recomputes
// (plus initial pushes) the async run performed — the work unit the
// race harness normalizes into equivalent passes.
func (e *AsyncEngine) ProcessedDocs() (n int64) {
	for _, rk := range e.rankers {
		n += rk.Recomputed()
	}
	return n
}

// Ranks returns the current rank estimates. Only read it while no run
// is in flight.
func (e *AsyncEngine) Ranks() []float64 { return gatherRanks(e.rankers, e.g.NumNodes()) }
