package wire

import (
	"sync"
	"time"

	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// Per-slot failure detection with quorum-confirmed eviction.
//
// The classic detector was a single cluster goroutine pinging every
// slot from an observer vantage: fault injection did not apply to its
// probes, and one vantage point alone decided eviction — a partition
// looked exactly like a crash. Here every live slot runs its own
// detector goroutine, pings the other slots through the cluster
// transport under its own peer identity (so scripted partitions cut
// its probes too), and gossips its suspicion set on the ping/pong
// exchange. A slot is only evicted once a majority of the live,
// unfenced population — the suspect included — concurs; a minority
// partition suspects everybody on the other side, never reaches
// quorum, and refuses (wire_evictions_refused) instead of
// split-brain-evicting the majority.

// detView is one remote vantage's last gossiped suspicion set.
type detView struct {
	suspects map[int]bool
	at       time.Time
}

// detector is one slot's failure-detection vantage.
type detector struct {
	c    *Cluster
	slot int

	mu    sync.Mutex
	miss  map[int]int     // consecutive ping misses per target slot
	views map[int]detView // latest gossiped suspicion set per vantage
}

// loop runs one detection round per heartbeat until the cluster stops.
func (d *detector) loop() {
	defer d.c.fdWg.Done()
	ticker := time.NewTicker(d.c.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-d.c.fdQuit:
			return
		case <-ticker.C:
		}
		d.round()
	}
}

// round pings every other live slot, exchanges suspicion gossip,
// tallies votes for this vantage's suspects, and either executes a
// quorum-confirmed eviction or records a refusal. A vantage that
// reaches a fenced slot while itself talking to a quorum completes the
// fenced slot's departure (reconcileFenced).
func (d *detector) round() {
	c := d.c
	slots, _ := c.table()
	if slots[d.slot].peer == nil {
		return // departed or crashed vantage: nothing to observe from
	}
	selfFenced := slots[d.slot].fenced
	n := 0 // voting population: live, unfenced slots (suspects included)
	for _, s := range slots {
		if !s.left && !s.fenced {
			n++
		}
	}
	threshold := c.cfg.SuspectAfter
	interval := c.cfg.Heartbeat
	quorum := n/2 + 1

	reached := 0
	var healable []int // fenced slots this vantage reached this round
	for j, t := range slots {
		if t.left || j == d.slot {
			continue
		}
		err := d.ping(j, t.addr, interval)
		d.mu.Lock()
		switch {
		case err == nil:
			delete(d.miss, j)
		case !t.fenced:
			d.miss[j]++
			if d.miss[j] == threshold {
				c.trace.Record(telemetry.EvSuspect, int32(d.slot), -1, 0, int64(j))
			}
		}
		d.mu.Unlock()
		if err == nil {
			reached++
			if t.fenced {
				healable = append(healable, j)
			}
		}
	}

	// Tally: one vote from this vantage plus one per other voter — a
	// slot of the population the quorum is sized over — whose freshly
	// gossiped suspicion set concurs. A departed or fenced slot's view
	// does not count, nor one from a slot newer than this round's table.
	// Slots already fenced or departed are being handled; they are not
	// re-proposed.
	fresh := 2 * interval * time.Duration(threshold)
	if fresh < 200*time.Millisecond {
		fresh = 200 * time.Millisecond
	}
	now := time.Now()
	votes := make(map[int]int)
	d.mu.Lock()
	for s, miss := range d.miss {
		// d.miss is keyed by slots this vantage pinged, and slots never go away.
		if slots[s].left {
			delete(d.miss, s)
			continue
		}
		if miss < threshold || slots[s].fenced {
			continue
		}
		v := 1
		for j, view := range d.views {
			voter := j < len(slots) && !slots[j].left && !slots[j].fenced
			if voter && j != d.slot && j != s && now.Sub(view.at) <= fresh && view.suspects[s] {
				v++
			}
		}
		votes[s] = v
	}
	d.mu.Unlock()
	for s, v := range votes {
		if !selfFenced && v >= quorum {
			if c.evictByQuorum(s, d.slot, v, quorum) {
				continue
			}
		}
		// Sub-quorum suspicion (or a vantage with no authority): park
		// the proposal and keep the suspect's state untouched.
		c.mEvictRefused.Add(1)
		c.trace.Record(telemetry.EvEvictRefused, int32(d.slot), -1, float64(v), int64(s))
	}

	// Heal: only a vantage that itself talks to a quorum may pull a
	// fenced slot back through reconciliation — a minority vantage
	// reaching another minority slot proves nothing.
	if !selfFenced && reached+1 >= quorum {
		for _, s := range healable {
			c.reconcileFenced(s, d.slot)
		}
	}
}

// ping performs one heartbeat round-trip to a target slot under this
// detector's peer identity, carrying the vantage's suspicion set and
// folding the target's gossiped set into views.
func (d *detector) ping(target int, addr string, interval time.Duration) error {
	timeout := interval
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	self := p2p.PeerID(d.slot)
	payload, err := roundTrip(d.c.cfg.Transport, self, p2p.PeerID(target), addr, timeout,
		framePing, encodeGossip(self, d.suspects()), framePong)
	if err != nil {
		return err
	}
	if len(payload) > 0 {
		if from, sus, err := decodeGossip(payload); err == nil {
			d.recordView(int(from), sus)
		}
	}
	return nil
}

// suspects snapshots this vantage's current suspicion set.
func (d *detector) suspects() []p2p.PeerID {
	threshold := d.c.cfg.SuspectAfter
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []p2p.PeerID
	for s, miss := range d.miss {
		if miss >= threshold {
			out = append(out, p2p.PeerID(s))
		}
	}
	return out
}

// recordView stores a remote vantage's gossiped suspicion set.
func (d *detector) recordView(from int, sus []p2p.PeerID) {
	set := make(map[int]bool, len(sus))
	for _, s := range sus {
		set[int(s)] = true
	}
	d.mu.Lock()
	d.views[from] = detView{suspects: set, at: time.Now()}
	d.mu.Unlock()
}
