package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType labels a convergence-trace event.
type EventType int32

// The trace event taxonomy. Pass events come from the engine's pass
// loop, ship/fold and retry/reconnect events from the wire layer's
// senders and receivers, and the membership events from the cluster
// frontends' join/leave/kill/restart transitions.
const (
	EvPassStart EventType = iota
	EvPassEnd
	EvShip
	EvFold
	EvRetry
	EvReconnect
	EvJoin
	EvLeave
	EvKill
	EvRestart
	EvEvict
	EvAdopt
	EvShed
	EvSuspect      // a detector vantage crossed the local suspicion threshold
	EvEvictRefused // a suspicion reached no eviction quorum this round
	EvHeal         // a fenced slot was reached again and departed
	EvEpochReject  // a receiver nacked a frame carrying a stale ownership epoch
	EvRelax        // the cluster moved to the next push-threshold stage (value: threshold, aux: updates released)
)

var eventNames = [...]string{
	EvPassStart:    "pass_start",
	EvPassEnd:      "pass_end",
	EvShip:         "ship",
	EvFold:         "fold",
	EvRetry:        "retry",
	EvReconnect:    "reconnect",
	EvJoin:         "join",
	EvLeave:        "leave",
	EvKill:         "kill",
	EvRestart:      "restart",
	EvEvict:        "evict",
	EvAdopt:        "adopt",
	EvShed:         "shed",
	EvSuspect:      "suspect",
	EvEvictRefused: "evict_refused",
	EvHeal:         "heal",
	EvEpochReject:  "epoch_reject",
	EvRelax:        "relax",
}

// String returns the stable wire name of the event type, used in the
// /trace JSON contract.
func (t EventType) String() string {
	if t < 0 || int(t) >= len(eventNames) {
		return "unknown"
	}
	return eventNames[t]
}

// Event is one convergence event. The numeric fields are
// type-specific: Peer is the reporting peer (or -1), Pass the pass
// number (or -1), Value carries the residual / delta mass / rank mass
// moved, and Aux a secondary count (documents in a batch, pending
// updates, the peer on the other end of a transfer).
type Event struct {
	Seq    uint64
	TimeNS int64
	Type   EventType
	Peer   int32
	Pass   int32
	Value  float64
	Aux    int64
}

// Trace is a bounded ring buffer of Events. Record is cheap and
// allocation-free — a mutex acquire and a struct store into a
// preallocated ring — so the hot layers can call it per batch without
// disturbing the pipeline's zero-alloc contract. When the ring wraps,
// the oldest events fall off.
type Trace struct {
	mu    sync.Mutex
	clock func() int64 // nanosecond timestamps; nil leaves TimeNS zero
	seq   uint64
	buf   []Event
	start int
	n     int
}

// NewTrace returns a trace holding at most capacity events (default
// 4096 when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Trace{buf: make([]Event, capacity)}
}

// SetClock injects the nanosecond timestamp source. Call before the
// trace is shared; the deterministic layers leave it nil and get zero
// timestamps, the cluster frontends install a wall clock.
func (t *Trace) SetClock(clock func() int64) {
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// Record appends one event, stamping Seq and TimeNS.
//
//dpr:hotpath
func (t *Trace) Record(typ EventType, peer, pass int32, value float64, aux int64) {
	t.mu.Lock()
	t.seq++
	e := Event{Seq: t.seq, Type: typ, Peer: peer, Pass: pass, Value: value, Aux: aux}
	if t.clock != nil {
		e.TimeNS = t.clock()
	}
	i := t.start + t.n
	if i >= len(t.buf) {
		i -= len(t.buf)
	}
	t.buf[i] = e
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.start++
		if t.start == len(t.buf) {
			t.start = 0
		}
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Cap returns the ring capacity.
func (t *Trace) Cap() int { return len(t.buf) }

// Recent returns up to n buffered events, oldest first (all of them
// when n <= 0).
func (t *Trace) Recent(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		j := t.start + t.n - n + i
		if j >= len(t.buf) {
			j -= len(t.buf)
		}
		out[i] = t.buf[j]
	}
	return out
}

// traceDoc is the JSON shape of the /trace endpoint.
type traceDoc struct {
	Len    int          `json:"len"`
	Cap    int          `json:"cap"`
	Events []traceEvent `json:"events"`
}

type traceEvent struct {
	Seq    uint64  `json:"seq"`
	TimeNS int64   `json:"t_ns"`
	Type   string  `json:"type"`
	Peer   int32   `json:"peer"`
	Pass   int32   `json:"pass"`
	Value  float64 `json:"value"`
	Aux    int64   `json:"aux"`
}

// WriteTraceJSON writes up to n recent events (all when n <= 0) as the
// stable JSON document served at /trace:
//
//	{"len":N,"cap":C,"events":[{"seq":..,"t_ns":..,"type":"..",
//	 "peer":..,"pass":..,"value":..,"aux":..},...]}
func (t *Trace) WriteTraceJSON(w io.Writer, n int) error {
	evs := t.Recent(n)
	doc := traceDoc{Len: t.Len(), Cap: t.Cap(), Events: make([]traceEvent, len(evs))}
	for i, e := range evs {
		doc.Events[i] = traceEvent{
			Seq: e.Seq, TimeNS: e.TimeNS, Type: e.Type.String(),
			Peer: e.Peer, Pass: e.Pass, Value: e.Value, Aux: e.Aux,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
