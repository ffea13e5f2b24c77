package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/p2p"
	"dpr/internal/rng"
)

// FaultConfig sets the probabilistic failure schedule of a
// FaultTransport. All probabilities are per write (per frame for the
// peer senders, which write one frame per call). The dice are drawn
// from a single seeded stream, so a given config produces a
// reproducible fault sequence.
type FaultConfig struct {
	Seed uint64

	// DropProb discards the written bytes and resets the connection.
	// The loss is detectable — the writer gets an error — which models
	// TCP's promise that undelivered data eventually surfaces as a
	// broken connection rather than a silent gap.
	DropProb float64

	// ResetProb delivers the written bytes and then resets the
	// connection anyway. The sender cannot tell this from DropProb, so
	// it must redeliver — exercising the receiver's duplicate
	// suppression.
	ResetProb float64

	// DupProb transmits the written bytes twice.
	DupProb float64

	// DelayProb sleeps a uniform [0, MaxDelay) before the write.
	DelayProb float64
	MaxDelay  time.Duration

	// DialFailProb fails connection establishment.
	DialFailProb float64
}

// FaultStats counts the faults a FaultTransport has injected.
type FaultStats struct {
	Drops, Resets, Dups, Delays, DialFails, PartitionRefusals uint64
}

// FaultTransport wraps another Transport with deterministic
// (seeded) fault injection: probabilistic drops, delivered-then-reset
// connections, duplicated frames, delays, dial failures, and scripted
// partitions of peer pairs. Partitions (Partition/Heal, Split/HealAll)
// and slow links (SetLinkDelay, SetLinkTrickle) change at runtime, so
// tests can script failure schedules.
type FaultTransport struct {
	inner Transport

	mu    sync.Mutex
	rng   *rng.Rand
	cfg   FaultConfig
	cut   map[dirKey]bool
	conns map[dirKey]map[*faultConn]struct{}

	// Slow-link injection, per link direction: linkDelay adds a
	// constant latency to every write, trickle throttles writes to
	// chunkBytes per chunkEvery sleep. Both model a slow-but-alive
	// destination — nothing is lost or reset, delivery just crawls.
	linkDelay map[dirKey]time.Duration
	trickle   map[dirKey]trickleSpec

	drops, resets, dups, delays, dialFails, refusals atomic.Uint64
}

// dirKey identifies one direction of a peer pair: cuts are kept per
// direction so a one-way partition (a can no longer reach b, while b
// still reaches a) is expressible — the asymmetric link failure that
// makes a's detector suspect b while nobody else concurs.
type dirKey struct{ from, to p2p.PeerID }

// NewFaultTransport wraps inner with the given fault schedule.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if inner == nil {
		inner = TCPDialer()
	}
	return &FaultTransport{
		inner:     inner,
		rng:       rng.New(cfg.Seed),
		cfg:       cfg,
		cut:       make(map[dirKey]bool),
		conns:     make(map[dirKey]map[*faultConn]struct{}),
		linkDelay: make(map[dirKey]time.Duration),
		trickle:   make(map[dirKey]trickleSpec),
	}
}

// trickleSpec throttles one link direction: at most ChunkBytes are
// written per chunk, with an Every sleep between chunks, so a frame of
// n bytes takes about (n/ChunkBytes)*Every to deliver.
type trickleSpec struct {
	ChunkBytes int
	Every      time.Duration
}

// SetLinkDelay adds a constant latency to every write in the from->to
// direction (0 removes it). Unlike DelayProb this is deterministic and
// per link, which is what a delayed-link test needs: one slow
// destination among fast ones.
func (t *FaultTransport) SetLinkDelay(from, to p2p.PeerID, d time.Duration) {
	t.mu.Lock()
	if d <= 0 {
		delete(t.linkDelay, dirKey{from, to})
	} else {
		t.linkDelay[dirKey{from, to}] = d
	}
	t.mu.Unlock()
}

// SetLinkTrickle throttles the from->to direction to chunkBytes per
// every sleep, modelling a stalled-but-alive connection that drains a
// few bytes at a time. chunkBytes <= 0 or every <= 0 removes the
// trickle.
func (t *FaultTransport) SetLinkTrickle(from, to p2p.PeerID, chunkBytes int, every time.Duration) {
	t.mu.Lock()
	if chunkBytes <= 0 || every <= 0 {
		delete(t.trickle, dirKey{from, to})
	} else {
		t.trickle[dirKey{from, to}] = trickleSpec{ChunkBytes: chunkBytes, Every: every}
	}
	t.mu.Unlock()
}

// Partition cuts the pair (a, b) in both directions: established
// connections are reset and new dials refused until Heal.
func (t *FaultTransport) Partition(a, b p2p.PeerID) {
	t.cutDirs(dirKey{a, b}, dirKey{b, a})
}

// PartitionOneWay cuts only the a -> b direction: a's dials to b are
// refused and a's established connections to b are reset, while b
// keeps dialing (and pinging) a normally. Because the fault injector
// wraps only the dialing side's connection, the asymmetry is exact:
// a suspects b, b does not suspect a.
func (t *FaultTransport) PartitionOneWay(a, b p2p.PeerID) {
	t.cutDirs(dirKey{a, b})
}

// Split partitions two peer groups from each other: every cross-group
// direction is cut (intra-group traffic is untouched). It is the
// majority/minority scenario in one call.
func (t *FaultTransport) Split(a, b []p2p.PeerID) {
	keys := make([]dirKey, 0, 2*len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			keys = append(keys, dirKey{x, y}, dirKey{y, x})
		}
	}
	t.cutDirs(keys...)
}

// cutDirs installs directional cuts and resets the affected
// connections.
func (t *FaultTransport) cutDirs(keys ...dirKey) {
	t.mu.Lock()
	var victims []*faultConn
	for _, key := range keys {
		t.cut[key] = true
		for c := range t.conns[key] {
			victims = append(victims, c)
		}
	}
	t.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Heal removes the partition between a and b (both directions).
func (t *FaultTransport) Heal(a, b p2p.PeerID) {
	t.mu.Lock()
	delete(t.cut, dirKey{a, b})
	delete(t.cut, dirKey{b, a})
	t.mu.Unlock()
}

// HealAll removes every scripted cut (pair partitions, one-way cuts
// and group splits alike).
func (t *FaultTransport) HealAll() {
	t.mu.Lock()
	clear(t.cut)
	t.mu.Unlock()
}

// Stats reports how many faults have been injected so far.
func (t *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Drops: t.drops.Load(), Resets: t.resets.Load(), Dups: t.dups.Load(),
		Delays: t.delays.Load(), DialFails: t.dialFails.Load(),
		PartitionRefusals: t.refusals.Load(),
	}
}

// Dial implements Transport.
func (t *FaultTransport) Dial(from, to p2p.PeerID, addr string) (net.Conn, error) {
	key := dirKey{from, to}
	t.mu.Lock()
	if t.cut[key] {
		t.mu.Unlock()
		t.refusals.Add(1)
		return nil, fmt.Errorf("wire: peers %d and %d are partitioned", from, to)
	}
	fail := t.rng.Bool(t.cfg.DialFailProb)
	t.mu.Unlock()
	if fail {
		t.dialFails.Add(1)
		return nil, fmt.Errorf("wire: injected dial failure %d -> %d", from, to)
	}
	conn, err := t.inner.Dial(from, to, addr)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: conn, t: t, key: key}
	t.mu.Lock()
	set := t.conns[key]
	if set == nil {
		set = make(map[*faultConn]struct{})
		t.conns[key] = set
	}
	set[fc] = struct{}{}
	t.mu.Unlock()
	return fc, nil
}

// faultConn applies the write-side faults of its FaultTransport. The
// key is the dialing direction: a directional cut installed after the
// dial still resets this connection, but only from the cut side —
// frames the server side writes back (acks, pongs) are not wrapped,
// which is exactly the asymmetry a one-way partition models.
type faultConn struct {
	net.Conn
	t    *FaultTransport
	key  dirKey
	dead atomic.Bool
}

// roll draws this write's fault decisions in one critical section so
// the dice stream stays a deterministic function of the seed.
func (c *faultConn) roll() (cut bool, delay time.Duration, drop, dup, reset bool, tr trickleSpec) {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cut[c.key] {
		return true, 0, false, false, false, trickleSpec{}
	}
	cfg := t.cfg
	if cfg.DelayProb > 0 && t.rng.Bool(cfg.DelayProb) && cfg.MaxDelay > 0 {
		delay = time.Duration(t.rng.Float64() * float64(cfg.MaxDelay))
	}
	delay += t.linkDelay[c.key]
	tr = t.trickle[c.key]
	drop = t.rng.Bool(cfg.DropProb)
	if !drop {
		dup = t.rng.Bool(cfg.DupProb)
		reset = t.rng.Bool(cfg.ResetProb)
	}
	return
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.dead.Load() {
		return 0, fmt.Errorf("wire: connection reset by fault injector")
	}
	cut, delay, drop, dup, reset, tr := c.roll()
	if cut {
		c.t.refusals.Add(1)
		c.Close()
		return 0, fmt.Errorf("wire: connection cut by partition")
	}
	if delay > 0 {
		c.t.delays.Add(1)
		time.Sleep(delay)
	}
	if drop {
		c.t.drops.Add(1)
		c.Close()
		return 0, fmt.Errorf("wire: injected drop (frame lost, connection reset)")
	}
	n, err := c.write(b, tr)
	if err != nil {
		return n, err
	}
	if dup {
		c.t.dups.Add(1)
		c.write(b, tr)
	}
	if reset {
		c.t.resets.Add(1)
		c.Close()
		return n, fmt.Errorf("wire: injected reset (frame delivered, connection reset)")
	}
	return n, nil
}

// write delivers b, trickled into chunks when the link is throttled.
func (c *faultConn) write(b []byte, tr trickleSpec) (int, error) {
	if tr.ChunkBytes <= 0 {
		return c.Conn.Write(b) //dpr:nodeadline passthrough wrapper: the caller's deadline is set on the wrapped conn and applies here
	}
	written := 0
	for written < len(b) {
		end := written + tr.ChunkBytes
		if end > len(b) {
			end = len(b)
		}
		n, err := c.Conn.Write(b[written:end]) //dpr:nodeadline passthrough wrapper: the caller's deadline is set on the wrapped conn and applies here
		written += n
		if err != nil {
			return written, err
		}
		if written < len(b) {
			time.Sleep(tr.Every)
		}
	}
	return written, nil
}

func (c *faultConn) Close() error {
	if c.dead.Swap(true) {
		return nil
	}
	c.t.mu.Lock()
	if set := c.t.conns[c.key]; set != nil {
		delete(set, c)
	}
	c.t.mu.Unlock()
	return c.Conn.Close()
}
