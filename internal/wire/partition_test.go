package wire

import (
	"net"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// waitCounter polls fn until it returns true or the deadline passes.
func waitCounter(t *testing.T, d time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// assertSingleOwnership walks every slot after a run and checks each
// document is held by exactly one place: a live peer's ranker or a
// crashed slot's checkpoint. A doc counted twice means a partition
// forked ownership; zero means a range was dropped on the floor.
func assertSingleOwnership(t *testing.T, c *Cluster) {
	t.Helper()
	owners := make([]int, c.g.NumNodes())
	slots, _ := c.table()
	for _, s := range slots {
		switch {
		case s.peer != nil:
			docs, _, _ := s.peer.rk.Rows()
			for _, d := range docs {
				owners[d]++
			}
		case s.snap != nil:
			for _, d := range s.snap.Docs {
				owners[d]++
			}
		}
	}
	for d, n := range owners {
		if n != 1 {
			t.Fatalf("document %d has %d owners after heal, want exactly 1", d, n)
		}
	}
}

// TestChaosPartitionSplitHeal is the acceptance scenario for partition
// tolerance: a 6-peer cluster is split 4/2 mid-computation under
// injected connection faults. Both sides run through multiple
// heartbeat cycles cut off from each other. The majority side must
// fence the two unreachable peers only after a quorum concurs; the
// minority side suspects everyone across the cut, never reaches
// quorum, and must refuse to evict anybody. After the partition heals
// a majority vantage reaches each fenced slot, which then departs to
// its ring successor like a Leave, and the computation converges.
//
// Rank comparison is against the centralized power-iteration solver
// AND against an actual fault-free cluster run on the same graph, both
// at 1e-3 relative error. Bit-identity between the two cluster runs is
// infeasible by design: the async chaotic schedule folds deltas in a
// nondeterministic association order, and the injected faults plus the
// partition reshuffle that order further — only the fixed point is
// stable, not the float trajectory.
func TestChaosPartitionSplitHeal(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 47))

	// Fault-free reference run: same graph, same placement seed, no
	// detector, no injected faults.
	ref, err := NewCluster(g, ClusterConfig{Peers: 6, Epsilon: 1e-6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(60 * time.Second)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	ft := NewFaultTransport(nil, FaultConfig{
		Seed:      101,
		ResetProb: 0.03,
		DropProb:  0.02,
		DupProb:   0.04,
		DelayProb: 0.04,
		MaxDelay:  2 * time.Millisecond,
	})
	c, err := NewCluster(g, ClusterConfig{
		Peers: 6, Epsilon: 1e-6, Seed: 9, Transport: ft,
		Heartbeat: 25 * time.Millisecond, SuspectAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 120*time.Second)

	time.Sleep(15 * time.Millisecond)
	ft.Split([]p2p.PeerID{0, 1, 2, 3}, []p2p.PeerID{4, 5})

	// Both sides must observe the cut across at least two heartbeat
	// cycles: the majority reaching quorum twice (one fence per
	// minority slot) and the minority recording at least one refused
	// eviction guarantees that many rounds happened on each side.
	waitCounter(t, 30*time.Second, "majority to fence the minority", func() bool {
		return c.mEvictQuorum.Load() >= 2 && c.mEvictRefused.Load() >= 1
	})
	time.Sleep(3 * 25 * time.Millisecond) // a few more cut heartbeats on both sides
	ft.HealAll()

	out := <-resCh
	if out.err != nil {
		s, pr := c.DebugCounters()
		t.Fatalf("%v (sent %d processed %d, view %+v)", out.err, s, pr, c.viewLocked())
	}
	res := out.res

	if res.EvictionsQuorum < 2 {
		t.Fatalf("evictions_quorum = %d, want >= 2 (both minority slots fenced)", res.EvictionsQuorum)
	}
	if res.EvictionsRefused == 0 {
		t.Fatal("minority partition recorded no refused evictions")
	}
	if res.Leaves < 2 {
		t.Fatalf("leaves = %d, want >= 2 (fenced slots must depart after heal)", res.Leaves)
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	assertSingleOwnership(t, c)
	assertNoMassLost(t, res)
	assertRegistryConservation(t, c.TelemetrySnapshot(), res.Ranks)
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	for i := range res.Ranks {
		rel := res.Ranks[i] - refRes.Ranks[i]
		if rel < 0 {
			rel = -rel
		}
		if rel/refRes.Ranks[i] > 1e-3 {
			t.Fatalf("doc %d: partitioned run %v vs fault-free run %v exceeds 1e-3 relative",
				i, res.Ranks[i], refRes.Ranks[i])
		}
	}
	t.Logf("partition chaos: %d msgs, quorum evictions %d, refused %d, epoch rejects %d, leaves %d, faults %+v",
		res.Messages, res.EvictionsQuorum, res.EvictionsRefused, res.EpochRejected, res.Leaves, ft.Stats())
}

// TestHealAfterMembershipChangedDuringCut: while the majority holds
// the two minority slots fenced, one of its own peers leaves and a new
// one joins, so the fenced peers' views and owner tables go stale — they
// are never pushed a view. The heal hands each fenced slot's state to
// its successor, whose Adopt reroutes the parked updates by its own
// current table: nothing is misrouted or lost, every document ends with
// one owner and the ranks reach the fixed point.
func TestHealAfterMembershipChangedDuringCut(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 47))
	ft := NewFaultTransport(nil, FaultConfig{Seed: 103})
	c, err := NewCluster(g, ClusterConfig{
		Peers: 6, Epsilon: 1e-6, Seed: 9, Transport: ft,
		Heartbeat: 25 * time.Millisecond, SuspectAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 120*time.Second)

	time.Sleep(15 * time.Millisecond)
	// Slot 6 is the one Join adds below: it joins the majority's side.
	ft.Split([]p2p.PeerID{0, 1, 2, 3, 6}, []p2p.PeerID{4, 5})
	waitCounter(t, 30*time.Second, "majority to fence the minority", func() bool {
		return c.mEvictQuorum.Load() >= 2
	})
	if err := c.Leave(1); err != nil {
		t.Fatal(err)
	}
	if j, err := c.Join(); err != nil || j != 6 {
		t.Fatalf("join during the cut: slot %d, %v; want slot 6", j, err)
	}
	ft.HealAll()

	out := <-resCh
	if out.err != nil {
		s, pr := c.DebugCounters()
		t.Fatalf("%v (sent %d processed %d)", out.err, s, pr)
	}
	res := out.res
	if res.Leaves < 3 {
		t.Fatalf("leaves = %d, want >= 3 (slot 1, then both fenced slots after the heal)", res.Leaves)
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	assertSingleOwnership(t, c)
	assertNoMassLost(t, res)
	assertRegistryConservation(t, c.TelemetrySnapshot(), res.Ranks)
	assertRanksMatch(t, g, res.Ranks, 1e-3)
}

// TestOneWayPartitionRefusesEviction cuts a single direction: slot 0
// can no longer reach slot 4, but every other vantage still can. Slot
// 0's detector suspects slot 4, gossips the suspicion, and gets no
// concurring vote — the proposal must be refused every round and
// nobody may be evicted. After healing, the parked updates drain and
// the run converges with full membership.
func TestOneWayPartitionRefusesEviction(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 53))
	ft := NewFaultTransport(nil, FaultConfig{Seed: 55})
	c, err := NewCluster(g, ClusterConfig{
		Peers: 5, Epsilon: 1e-6, Seed: 21, Transport: ft,
		Heartbeat: 20 * time.Millisecond, SuspectAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 120*time.Second)

	time.Sleep(10 * time.Millisecond)
	ft.PartitionOneWay(0, 4)
	waitCounter(t, 30*time.Second, "lone suspicion to be refused", func() bool {
		return c.mEvictRefused.Load() >= 1
	})
	ft.HealAll()

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if res.EvictionsQuorum != 0 {
		t.Fatalf("a one-way cut evicted %d peers; a single vantage must never reach quorum", res.EvictionsQuorum)
	}
	if res.EvictionsRefused == 0 {
		t.Fatal("no refused evictions recorded")
	}
	if res.Leaves != 0 {
		t.Fatalf("leaves = %d, want 0", res.Leaves)
	}
	assertNoMassLost(t, res)
	assertRanksMatch(t, g, res.Ranks, 1e-3)
}

// TestOnlyVotersVote: the quorum is sized over live, unfenced slots, so
// only their views may be tallied. Slot 3 departed still suspecting slot
// 2, and its gossip is fresh; counted, it would make slot 0's lone
// suspicion of crashed slot 2 a quorum of two out of three.
func TestOnlyVotersVote(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(200, 61))
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Seed: 3, Heartbeat: 20 * time.Millisecond, SuspectAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Leave(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	d := &detector{c: c, slot: 0,
		miss:  map[int]int{2: 1},
		views: map[int]detView{3: {suspects: map[int]bool{2: true}, at: time.Now()}},
	}
	d.round()
	if got := c.mEvictRefused.Load(); got != 1 {
		t.Errorf("wire_evictions_refused = %d, want 1: votes 1 < quorum 2", got)
	}
	if got := c.mEvictQuorum.Load(); got != 0 {
		t.Errorf("wire_evictions_quorum = %d, want 0", got)
	}
	c.mu.Lock()
	crashed := c.slots[2].snap != nil && !c.slots[2].left
	c.mu.Unlock()
	if !crashed {
		t.Error("slot 2 was evicted on a departed slot's vote; want it still crashed")
	}
}

// TestEpochRejectStaleFrame drives the receiver's epoch fence over a
// raw connection: a frame stamped with an epoch behind the receiver's
// view of its origDest range must be nacked with the current epoch and
// leave no trace in the dedup table, a frame at the current epoch must
// fold, and a frame from the future must be adopted, after which the
// once-current epoch is itself stale.
func TestEpochRejectStaleFrame(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(4)
	docPeer := make([]p2p.PeerID, 4) // everything owned by peer 0
	p, err := NewPeer(PeerConfig{
		ID: 0, Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{0, 1, 2, 3},
		Epochs: []uint64{0, 5}, // this peer adopted range 1 at epoch 5
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	send := func(seq, epoch uint64) (byte, []byte) {
		t.Helper()
		us := []p2p.Update{{Doc: 0, Delta: 0.5}}
		if err := writeFrame(conn, frameBatchEpoch, encodeBatchEpoch(nil, 1, 1, seq, epoch, us)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return typ, payload
	}

	// Stale epoch: rejected with the receiver's current epoch.
	typ, payload := send(1, 2)
	if typ != frameNackEpoch {
		t.Fatalf("stale frame answered with %c, want %c", typ, frameNackEpoch)
	}
	seq, epoch, err := decodeNackEpoch(payload)
	if err != nil || seq != 1 || epoch != 5 {
		t.Fatalf("nack = (%d, %d, %v), want (1, 5)", seq, epoch, err)
	}
	if got := p.Stats().EpochRejected; got != 1 {
		t.Fatalf("epoch_rejected = %d, want 1", got)
	}

	// Same seq at the current epoch: the rejection must not have
	// advanced the dedup table, so this folds and acks.
	if typ, _ = send(1, 5); typ != frameCredit {
		t.Fatalf("current-epoch frame answered with %c, want credit", typ)
	}

	// Future epoch: adopted, folded...
	if typ, _ = send(2, 7); typ != frameCredit {
		t.Fatalf("future-epoch frame answered with %c, want credit", typ)
	}
	// ...after which the previously current epoch is stale.
	typ, payload = send(3, 5)
	if typ != frameNackEpoch {
		t.Fatalf("frame behind an adopted epoch answered with %c, want %c", typ, frameNackEpoch)
	}
	if _, epoch, _ = decodeNackEpoch(payload); epoch != 7 {
		t.Fatalf("nack epoch = %d, want the adopted 7", epoch)
	}
	if got := p.Stats().EpochRejected; got != 2 {
		t.Fatalf("epoch_rejected = %d, want 2", got)
	}

	// A later frame at the current epoch folds and advances dedup past
	// the rejected seq 3...
	if typ, _ = send(4, 7); typ != frameCredit {
		t.Fatalf("current-epoch frame answered with %c, want credit", typ)
	}
	// ...but a retransmission of the rejected frame (its nack was lost
	// with the connection, say) must face the epoch fence again, not be
	// acknowledged as a duplicate — an ack here would tell the sender to
	// discard updates that never folded anywhere.
	typ, _ = send(3, 5)
	if typ != frameNackEpoch {
		t.Fatalf("retransmitted rejected frame answered with %c, want %c", typ, frameNackEpoch)
	}
	if got := p.Stats().EpochRejected; got != 3 {
		t.Fatalf("epoch_rejected = %d, want 3", got)
	}
	// A re-stamped copy at the current epoch (what a restored or
	// adopting sender emits) finally folds it, exactly once...
	if typ, _ = send(3, 7); typ != frameCredit {
		t.Fatalf("re-stamped rejected frame answered with %c, want credit", typ)
	}
	before := p.Stats().DupDropped
	// ...and only then does plain duplicate suppression take over.
	if typ, _ = send(3, 7); typ != frameCredit {
		t.Fatalf("duplicate of folded frame answered with %c, want credit", typ)
	}
	if got := p.Stats().DupDropped; got != before+1 {
		t.Fatalf("dup_dropped = %d, want %d", got, before+1)
	}
}

// TestEpochNackRequeuesUpdates runs two real peers where the receiver
// starts with a newer epoch for its own range than the sender knows:
// every first frame on that stream is nacked, the sender must adopt
// the epoch, withdraw the frame, requeue its updates through the owner
// table and redeliver — without losing or double-folding any delta
// mass.
func TestEpochNackRequeuesUpdates(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(4)
	docPeer := []p2p.PeerID{0, 0, 1, 1}
	a, err := NewPeer(PeerConfig{ID: 0, Graph: g, DocPeer: docPeer,
		Docs: []graph.NodeID{0, 1}, Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewPeer(PeerConfig{ID: 1, Graph: g, DocPeer: docPeer,
		Docs: []graph.NodeID{2, 3}, Epsilon: 1e-10,
		Epochs: []uint64{0, 3}}) // b's own range moved to epoch 3; a starts at 0
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := []string{a.Addr(), b.Addr()}
	a.SetPeers(addrs)
	b.SetPeers(addrs)
	a.Start()
	b.Start()

	// Quiescence: totals equal and unchanged across two polls.
	var prevSent uint64
	deadline := time.Now().Add(30 * time.Second)
	for {
		as, ap := a.Counters()
		bs, bp := b.Counters()
		if as+bs == ap+bp && as+bs == prevSent && prevSent > 0 {
			break
		}
		prevSent = as + bs
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence: sent %d processed %d", as+bs, ap+bp)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if got := b.Stats().EpochRejected; got == 0 {
		t.Fatal("receiver never rejected the sender's stale epoch")
	}
	st := addStats(a.Stats(), b.Stats())
	if st.Misdropped != 0 {
		t.Fatalf("%d updates misdropped during epoch catch-up", st.Misdropped)
	}
	assertNoMassLost(t, ClusterResult{PeerStats: st})
	ranks := make([]float64, 4)
	for _, p := range []*Peer{a, b} {
		p.rk.RanksInto(ranks)
	}
	assertRanksMatch(t, g, ranks, 1e-3)
}
