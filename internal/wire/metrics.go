package wire

import (
	"math"

	"dpr/internal/telemetry"
)

// peerMetrics bundles one peer's registry-backed instruments. They
// replace the hand-rolled atomic tallies the peers used to carry: the
// public PeerStats shape is unchanged, but every read now goes through
// the telemetry registry, so /metrics, the conservation tests, and the
// end-of-run result structs all see the same numbers.
type peerMetrics struct {
	reg *telemetry.Registry // stats and restore reach the counters by name (statFields)

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
	updatesWide   *telemetry.Counter // framed updates not sent in 2 bytes: float32 shares past the guard, coalesced sums

	// Occupancy instruments: inboxOccupancy is the inbox depth
	// observed at each processing batch, unackedFrames the in-flight
	// (sent or framed, not yet acked) frames across this peer's
	// senders, and sendLatency the distribution of send-to-ack
	// latencies.
	inboxOccupancy *telemetry.Gauge
	unackedFrames  *telemetry.Gauge
	sendLatency    *telemetry.Histogram

	// The conservation pair: delta mass originated versus delta mass
	// folded. At quiescence the two must be equal
	// (TestTelemetryConservationUnderFaults asserts it under faults).
	deltaShipped *telemetry.FloatCounter
	deltaFolded  *telemetry.FloatCounter

	// rankMass tracks the total rank currently held by this peer's
	// ranker rows; merged across peers it is the cluster's total mass.
	rankMass *telemetry.Gauge
}

func newPeerMetrics(reg *telemetry.Registry) peerMetrics {
	return peerMetrics{
		reg: reg,

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
		updatesWide:   reg.Counter("wire_updates_wide"),

		inboxOccupancy: reg.Gauge("wire_inbox_occupancy"),
		unackedFrames:  reg.Gauge("wire_unacked_frames"),
		sendLatency: reg.Histogram("wire_send_latency_seconds",
			telemetry.ExpBuckets(100e-6, 4, 8)),

		deltaShipped: reg.FloatCounter("wire_delta_shipped"),
		deltaFolded:  reg.FloatCounter("wire_delta_folded"),
		rankMass:     reg.Gauge("wire_rank_mass"),
	}
}

// statField ties one PeerStats counter to the registry instrument that
// backs it on a live peer. Exactly one of u and f is set.
type statField struct {
	metric string
	u      func(*PeerStats) *uint64
	f      func(*PeerStats) *float64
}

// statFields is the one enumeration of PeerStats. Whatever must handle
// every counter iterates it — a live peer's stats and restore, the
// cluster-wide sum, the checkpoint header — so a counter missing here
// is missing everywhere at once, and a test checks by reflection that
// none is. The order is the checkpoint header's: a new counter goes at
// the end and takes a new peerSnapVersion with it.
var statFields = []statField{
	{"wire_sent", func(s *PeerStats) *uint64 { return &s.Sent }, nil},
	{"wire_processed", func(s *PeerStats) *uint64 { return &s.Processed }, nil},
	{"wire_retries", func(s *PeerStats) *uint64 { return &s.Retries }, nil},
	{"wire_reconnects", func(s *PeerStats) *uint64 { return &s.Reconnects }, nil},
	{"wire_redeliveries", func(s *PeerStats) *uint64 { return &s.Redeliveries }, nil},
	{"wire_coalesced", func(s *PeerStats) *uint64 { return &s.Coalesced }, nil},
	{"wire_dup_dropped", func(s *PeerStats) *uint64 { return &s.DupDropped }, nil},
	{"wire_forwarded", func(s *PeerStats) *uint64 { return &s.Forwarded }, nil},
	{"wire_misdropped", func(s *PeerStats) *uint64 { return &s.Misdropped }, nil},
	{"wire_epoch_rejected", func(s *PeerStats) *uint64 { return &s.EpochRejected }, nil},
	{"wire_delta_shipped", nil, func(s *PeerStats) *float64 { return &s.DeltaShipped }},
	{"wire_delta_folded", nil, func(s *PeerStats) *float64 { return &s.DeltaFolded }},
	{"wire_updates_wide", func(s *PeerStats) *uint64 { return &s.UpdatesWide }, nil},
}

// word reads the counter as a checkpoint header word: a float counter
// travels as its IEEE 754 bits.
func (sf statField) word(s *PeerStats) uint64 {
	if sf.f != nil {
		return math.Float64bits(*sf.f(s))
	}
	return *sf.u(s)
}

func (sf statField) setWord(s *PeerStats, w uint64) {
	if sf.f != nil {
		*sf.f(s) = math.Float64frombits(w)
	} else {
		*sf.u(s) = w
	}
}

// addStats sums two counter sets.
func addStats(a, b PeerStats) PeerStats {
	for _, sf := range statFields {
		if sf.f != nil {
			*sf.f(&a) += *sf.f(&b)
		} else {
			*sf.u(&a) += *sf.u(&b)
		}
	}
	return a
}

// stats reads the full counter set.
func (m *peerMetrics) stats() (st PeerStats) {
	for _, sf := range statFields {
		if sf.f != nil {
			*sf.f(&st) = m.reg.FloatCounter(sf.metric).Load()
		} else {
			*sf.u(&st) = m.reg.Counter(sf.metric).Load()
		}
	}
	return st
}

// restore overwrites every counter from a checkpoint snapshot. Used
// only on the quiescent restore path; the Stores are idempotent, so
// restoring into a registry retained across a crash is safe.
func (m *peerMetrics) restore(s PeerStats) {
	for _, sf := range statFields {
		if sf.f != nil {
			m.reg.FloatCounter(sf.metric).Store(*sf.f(&s))
		} else {
			m.reg.Counter(sf.metric).Store(*sf.u(&s))
		}
	}
}
