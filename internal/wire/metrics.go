package wire

import "dpr/internal/telemetry"

// peerMetrics bundles one peer's registry-backed instruments. They
// replace the hand-rolled atomic tallies the peers used to carry: the
// public PeerStats shape is unchanged, but every read now goes through
// the telemetry registry, so /metrics, the conservation tests, and the
// end-of-run result structs all see the same numbers.
type peerMetrics struct {
	sent          *telemetry.Counter // update messages shipped to other peers
	processed     *telemetry.Counter // update messages consumed (folded or coalesced)
	retries       *telemetry.Counter // frame transmissions past a frame's first attempt
	reconnects    *telemetry.Counter // successful re-dials after a connection loss
	redeliveries  *telemetry.Counter // frames acknowledged after more than one attempt
	coalesced     *telemetry.Counter // updates absorbed by sender-side delta coalescing
	dupDropped    *telemetry.Counter // duplicate frames suppressed by seq dedup
	forwarded     *telemetry.Counter // misrouted updates re-shipped to the current owner
	misdropped    *telemetry.Counter // updates with no resolvable owner (must stay 0)
	epochRejected *telemetry.Counter // frames nacked for carrying a stale ownership epoch

	// Overload protection: creditStalls counts stall episodes (a stream
	// transitioning from framing to credit-blocked), shedCoalesced the
	// updates losslessly absorbed by delta coalescing while their
	// destination was credit-blocked, and slowPeer the transitions of a
	// destination into straggler mode.
	creditStalls  *telemetry.Counter
	shedCoalesced *telemetry.Counter
	slowPeer      *telemetry.Counter

	// Occupancy instruments: inboxOccupancy is the bulk-lane depth
	// observed at each processing batch, unackedFrames the in-flight
	// (sent or framed, not yet acked) frames across this peer's
	// senders, sendLatencyEwma the most recent send-to-ack EWMA any
	// sender computed, and sendLatency the distribution of raw
	// send-to-ack latencies.
	inboxOccupancy  *telemetry.Gauge
	unackedFrames   *telemetry.Gauge
	sendLatencyEwma *telemetry.Gauge
	sendLatency     *telemetry.Histogram

	// The conservation pair: delta mass originated versus delta mass
	// folded. At quiescence the two must be equal (dprlint's
	// counterflow rule keeps every mutation two-sided).
	deltaShipped *telemetry.FloatCounter
	deltaFolded  *telemetry.FloatCounter

	// rankMass tracks the total rank currently held by this peer's
	// ranker rows; merged across peers it is the cluster's total mass.
	rankMass *telemetry.Gauge
}

func newPeerMetrics(reg *telemetry.Registry) peerMetrics {
	return peerMetrics{
		sent:          reg.Counter("wire_sent"),
		processed:     reg.Counter("wire_processed"),
		retries:       reg.Counter("wire_retries"),
		reconnects:    reg.Counter("wire_reconnects"),
		redeliveries:  reg.Counter("wire_redeliveries"),
		coalesced:     reg.Counter("wire_coalesced"),
		dupDropped:    reg.Counter("wire_dup_dropped"),
		forwarded:     reg.Counter("wire_forwarded"),
		misdropped:    reg.Counter("wire_misdropped"),
		epochRejected: reg.Counter("wire_epoch_rejected"),
		creditStalls:  reg.Counter("wire_credit_stalls"),
		shedCoalesced: reg.Counter("wire_shed_coalesced"),
		slowPeer:      reg.Counter("wire_slow_peer"),

		inboxOccupancy:  reg.Gauge("wire_inbox_occupancy"),
		unackedFrames:   reg.Gauge("wire_unacked_frames"),
		sendLatencyEwma: reg.Gauge("wire_send_latency_ewma_seconds"),
		sendLatency: reg.Histogram("wire_send_latency_seconds",
			telemetry.ExpBuckets(100e-6, 4, 8)),

		deltaShipped: reg.FloatCounter("wire_delta_shipped"),
		deltaFolded:  reg.FloatCounter("wire_delta_folded"),
		rankMass:     reg.Gauge("wire_rank_mass"),
	}
}

// stats reads the full counter set.
func (m *peerMetrics) stats() PeerStats {
	return PeerStats{
		Sent:          m.sent.Load(),
		Processed:     m.processed.Load(),
		Retries:       m.retries.Load(),
		Reconnects:    m.reconnects.Load(),
		Redeliveries:  m.redeliveries.Load(),
		Coalesced:     m.coalesced.Load(),
		DupDropped:    m.dupDropped.Load(),
		Forwarded:     m.forwarded.Load(),
		Misdropped:    m.misdropped.Load(),
		EpochRejected: m.epochRejected.Load(),
		CreditStalls:  m.creditStalls.Load(),
		ShedCoalesced: m.shedCoalesced.Load(),
		SlowPeer:      m.slowPeer.Load(),
		DeltaShipped:  m.deltaShipped.Load(),
		DeltaFolded:   m.deltaFolded.Load(),
	}
}

// restore overwrites every counter from a checkpoint snapshot. Used
// only on the quiescent restore path; the Stores are idempotent, so
// restoring into a registry retained across a crash is safe.
func (m *peerMetrics) restore(s PeerStats) {
	m.sent.Store(s.Sent)
	m.processed.Store(s.Processed)
	m.retries.Store(s.Retries)
	m.reconnects.Store(s.Reconnects)
	m.redeliveries.Store(s.Redeliveries)
	m.coalesced.Store(s.Coalesced)
	m.dupDropped.Store(s.DupDropped)
	m.forwarded.Store(s.Forwarded)
	m.misdropped.Store(s.Misdropped)
	m.epochRejected.Store(s.EpochRejected)
	m.creditStalls.Store(s.CreditStalls)
	m.shedCoalesced.Store(s.ShedCoalesced)
	m.slowPeer.Store(s.SlowPeer)
	m.deltaShipped.Store(s.DeltaShipped)
	m.deltaFolded.Store(s.DeltaFolded)
}
