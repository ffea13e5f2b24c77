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
// accounts at a pass boundary or right after a graph edit. Exact
// bookkeeping keeps them equal up to float rounding (the tests allow a
// relative 1e-9), through inserts, relinks and deletes alike: a
// deletion relinks its in-linkers before it retracts its own mass, so
// what it then zeroes is what was sent to it and taken back. The one
// exception is mass parked in the retry queue for a deleted document,
// which counts here until its peer returns and the drain drops it.
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
