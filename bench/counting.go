package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/metrics"
	"dpr/internal/p2p"
	"dpr/internal/wire"
)

// countingTransport is the benchmark's view of the sockets: a
// wire.Transport that wraps another and counts what crosses every
// connection it dials. The wire layer opens all of its connections —
// peer-to-peer streams, termination probes, rank collection — through
// ClusterConfig.Transport, so the dial side sees every byte: what it
// writes is the request direction, what it reads is whatever the
// accepting peer wrote back (acks, credit, probe replies, ranks).
//
// With timed off it costs two atomic adds per call, so it stays in
// place for the untraced end-to-end runs. With timed on it also
// clocks each Dial, Write and Read; the Read clock is the time a
// dialer spent blocked waiting for the other side, which on a sender
// stream is the wait for an ack or a credit grant.
//
// It is placed inside a FaultTransport, not around it, so a dropped
// frame is not counted and a duplicated one is counted twice: the
// totals are bytes that reached the socket.
type countingTransport struct {
	inner wire.Transport
	timed bool

	dials        atomic.Uint64
	writes       atomic.Uint64
	bytesWritten atomic.Uint64
	bytesRead    atomic.Uint64
	writeBusyNs  atomic.Int64
	readWaitNs   atomic.Int64

	mu     sync.Mutex
	dialNs []float64 // one per successful or failed dial, timed only
}

func newCountingTransport(inner wire.Transport, timed bool) *countingTransport {
	return &countingTransport{inner: inner, timed: timed}
}

// clock reads the time only when per-call clocks are on.
func (t *countingTransport) clock() time.Time {
	if t.timed {
		return time.Now()
	}
	return time.Time{}
}

// lap adds the time since start to into when per-call clocks are on.
func (t *countingTransport) lap(start time.Time, into *atomic.Int64) {
	if t.timed {
		into.Add(time.Since(start).Nanoseconds())
	}
}

// Dial implements wire.Transport.
func (t *countingTransport) Dial(from, to p2p.PeerID, addr string) (net.Conn, error) {
	t.dials.Add(1)
	start := t.clock()
	conn, err := t.inner.Dial(from, to, addr)
	if t.timed {
		d := float64(time.Since(start).Nanoseconds())
		t.mu.Lock()
		t.dialNs = append(t.dialNs, d)
		t.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, t: t}, nil
}

// bytesTotal is every byte that crossed a dialed socket, both ways.
func (t *countingTransport) bytesTotal() uint64 {
	return t.bytesWritten.Load() + t.bytesRead.Load()
}

// dialMsP50 is the median dial time in milliseconds (0 when untimed).
func (t *countingTransport) dialMsP50() float64 {
	t.mu.Lock()
	ns := append([]float64(nil), t.dialNs...)
	t.mu.Unlock()
	if len(ns) == 0 {
		return 0
	}
	sort.Float64s(ns)
	return metrics.Quantile(ns, 0.5) / 1e6
}

// countedConn passes every call through to the wrapped connection
// unaltered; deadlines set by the caller apply to the wrapped
// connection because SetDeadline is promoted from it.
type countedConn struct {
	net.Conn
	t *countingTransport
}

func (c *countedConn) Write(b []byte) (int, error) {
	start := c.t.clock()
	n, err := c.Conn.Write(b)
	c.t.lap(start, &c.t.writeBusyNs)
	c.t.writes.Add(1)
	c.t.bytesWritten.Add(uint64(n))
	return n, err
}

func (c *countedConn) Read(b []byte) (int, error) {
	start := c.t.clock()
	n, err := c.Conn.Read(b)
	c.t.lap(start, &c.t.readWaitNs)
	c.t.bytesRead.Add(uint64(n))
	return n, err
}
