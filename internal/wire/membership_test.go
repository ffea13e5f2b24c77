package wire

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dpr/internal/dht"
	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// runAsync starts a cluster run in the background.
func runAsync(c *Cluster, timeout time.Duration) chan struct {
	res ClusterResult
	err error
} {
	resCh := make(chan struct {
		res ClusterResult
		err error
	}, 1)
	go func() {
		res, err := c.Run(timeout)
		resCh <- struct {
			res ClusterResult
			err error
		}{res, err}
	}()
	return resCh
}

// TestLeaveMigratesLivePeer removes a live peer mid-computation: its
// documents, dedup tables and queues move to its ring successor, and
// the run must converge to the centralized baseline with zero mass
// lost and no operator restart.
func TestLeaveMigratesLivePeer(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 31))
	c, err := NewCluster(g, ClusterConfig{Peers: 5, Epsilon: 1e-6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 60*time.Second)
	time.Sleep(10 * time.Millisecond)
	if err := c.Leave(1); err != nil {
		t.Fatalf("leave: %v", err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	if res.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1", res.Leaves)
	}
	if res.Migrated == 0 {
		t.Fatal("leave migrated no documents")
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
}

// TestLeaveCrashedPeerHandsOffCheckpoint crashes a peer, then removes
// it permanently: the handoff must come from its checkpoint, including
// the updates parked in its outbound queues.
func TestLeaveCrashedPeerHandsOffCheckpoint(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 33))
	c, err := NewCluster(g, ClusterConfig{Peers: 5, Epsilon: 1e-6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 60*time.Second)
	time.Sleep(10 * time.Millisecond)
	if err := c.Kill(2); err != nil {
		t.Fatalf("kill: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Leave(2); err != nil {
		t.Fatalf("leave of crashed peer: %v", err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertRanksMatch(t, g, out.res.Ranks, 1e-3)
	assertNoMassLost(t, out.res)
	if out.res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", out.res.Misdropped)
	}
}

// TestLeaveIntoCrashedSuccessorMergesCheckpoints covers the nastiest
// handoff: the departing peer's ring successor is itself crashed, so
// the handoff must be merged into the successor's checkpoint and only
// materialize when the successor restarts.
func TestLeaveIntoCrashedSuccessorMergesCheckpoints(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 35))
	c, err := NewCluster(g, ClusterConfig{Peers: 5, Epsilon: 1e-6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Find a leaver whose ring successor we can crash first.
	leaver := 1
	succ := c.slotOf(c.slots[leaver].node.Successor())
	if succ < 0 {
		t.Fatal("no successor slot")
	}
	resCh := runAsync(c, 60*time.Second)
	time.Sleep(10 * time.Millisecond)
	if err := c.Kill(succ); err != nil {
		t.Fatalf("kill successor: %v", err)
	}
	if err := c.Leave(leaver); err != nil {
		t.Fatalf("leave into crashed successor: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Restart(succ); err != nil {
		t.Fatalf("restart successor: %v", err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertRanksMatch(t, g, out.res.Ranks, 1e-3)
	assertNoMassLost(t, out.res)
	if out.res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", out.res.Misdropped)
	}
}

// TestJoinTakesOverKeyRange adds fresh peers mid-computation: each
// takes exactly its ring range of its successor's documents, the
// second from a successor that has just inherited a leaver's, and the
// run still converges exactly.
func TestJoinTakesOverKeyRange(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 37))
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Epsilon: 1e-6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 60*time.Second)
	time.Sleep(10 * time.Millisecond)
	joinTakesSuccessorRange(t, c, 4)
	// The next joiner's ring successor first inherits its predecessor's
	// documents.
	c.mu.Lock()
	next := c.ring.Owner(dht.PeerIDFromName(fmt.Sprintf("peer-%d", len(c.slots))))
	live := c.ring.Nodes()
	at := slices.Index(live, next)
	leaver, heir := c.slotOf(live[(at+len(live)-1)%len(live)]), c.slotOf(next)
	c.mu.Unlock()
	if err := c.Leave(leaver); err != nil {
		t.Fatalf("leave: %v", err)
	}
	t.Logf("slot %d left; its heir %d is the next joiner's successor", leaver, heir)
	joinTakesSuccessorRange(t, c, 5)
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	if res.Joins != 2 || res.Leaves != 1 {
		t.Fatalf("joins, leaves = %d, %d, want 2, 1", res.Joins, res.Leaves)
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	t.Logf("membership migrated %d docs; %d forwarded updates", res.Migrated, res.Forwarded)
}

// joinTakesSuccessorRange joins a peer as slot want and checks that it
// took exactly its ring successor's former documents that the ring now
// assigns to it, and that the successor kept none of them.
func joinTakesSuccessorRange(t *testing.T, c *Cluster, want int) {
	t.Helper()
	c.mu.Lock()
	before := make([][]graph.NodeID, len(c.slots))
	for i, s := range c.slots {
		before[i] = slices.Clone(s.docs)
	}
	c.mu.Unlock()
	i, err := c.Join()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if i != want {
		t.Fatalf("join slot = %d, want %d", i, want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	node := c.slots[i].node
	succ := c.slotOf(node.Successor())
	var took []graph.NodeID
	for _, d := range before[succ] {
		if c.ring.Owner(docKey(d)) == node {
			took = append(took, d)
		}
	}
	slices.Sort(took)
	got := slices.Clone(c.slots[i].docs)
	slices.Sort(got)
	if len(took) == 0 || !slices.Equal(got, took) {
		t.Fatalf("slot %d took %d documents from successor %d, want its %d in range", i, len(got), succ, len(took))
	}
	for _, d := range c.slots[succ].docs {
		if _, found := slices.BinarySearch(took, d); found {
			t.Fatalf("document %d is at both slot %d and its successor %d", d, i, succ)
		}
	}
	t.Logf("slot %d took %d of successor %d's %d documents", i, len(took), succ, len(before[succ]))
	if len(c.slots[succ].docs)+len(took) != len(before[succ]) {
		t.Fatalf("successor %d holds %d documents, want %d", succ, len(c.slots[succ].docs), len(before[succ])-len(took))
	}
}

// thresholds reads the cluster's stage of the push-threshold schedule
// and the one every live peer was born at.
func thresholds(c *Cluster) (cluster float64, born map[int]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	born = make(map[int]float64)
	for i, s := range c.slots {
		if s.peer != nil {
			born[i] = s.peer.cfg.Threshold
		}
	}
	return c.thr, born
}

// TestCrashedSlotDoesNotHoldTheScheduleHostage kills a peer in the first
// stages and leaves it down: the frames parked for it keep sent −
// processed high for good, so the schedule has to move on counters that
// stopped moving. The cluster is the one that knows the stage: a peer
// that joins once the floor is reached is born at ε, not back at the
// start, and so is the crashed slot's next incarnation. Its checkpoint
// was taken at a laxer stage nobody will sweep for it, so whoever
// installs the rows — the restarted peer, or the successor adopting them
// when the slot leaves for good — sweeps them itself.
func TestCrashedSlotDoesNotHoldTheScheduleHostage(t *testing.T) {
	t.Run("restart", func(t *testing.T) { crashedSlotSchedule(t, (*Cluster).Restart) })
	t.Run("leave", func(t *testing.T) { crashedSlotSchedule(t, (*Cluster).Leave) })
}

func crashedSlotSchedule(t *testing.T, revive func(*Cluster, int) error) {
	defer assertNoGoroutineLeaks(t)()
	const eps = 1e-6
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(2000, 91))
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Epsilon: eps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	early, err := c.Join() // before the run: the first stage
	if err != nil {
		t.Fatal(err)
	}
	if thr, peers := thresholds(c); thr != p2p.StartThreshold(eps) || peers[0] != thr || peers[early] != thr {
		t.Fatalf("before the run the cluster is at %v, peers at %v; want all at %v", thr, peers, p2p.StartThreshold(eps))
	}
	resCh := runAsync(c, 120*time.Second)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if thr, _ := thresholds(c); thr <= 1e-3 {
		t.Fatalf("peer 1 was killed at threshold %v: too late to have rows saved at a laxer stage", thr)
	}
	waitCounter(t, 60*time.Second, "the schedule to reach ε around the crashed slot", func() bool {
		thr, _ := thresholds(c)
		return thr == eps
	})
	late, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := revive(c, 1); err != nil {
		t.Fatal(err)
	}
	// Slot 1 is in the table only if it was restarted.
	_, born := thresholds(c)
	if thr, restarted := born[1]; born[late] != eps || (restarted && thr != eps) || born[early] != p2p.StartThreshold(eps) {
		t.Fatalf("peers were born at thresholds %v: want %v for slot %d and for slot 1, which were born at the floor", born, eps, late)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertRanksMatch(t, g, out.res.Ranks, 1e-3)
	assertNoMassLost(t, out.res)
	assertResidualsPushed(t, c, eps)
	if got := c.TelemetrySnapshot().GaugeValue("cluster_push_threshold"); got != eps {
		t.Fatalf("cluster_push_threshold gauge = %v after the run, want %v", got, eps)
	}
}

// TestFailureDetectorAutoLeave kills a peer and never restarts it: the
// heartbeat detector must suspect it, remove it permanently, and the
// computation must converge without any operator intervention.
func TestFailureDetectorAutoLeave(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 39))
	c, err := NewCluster(g, ClusterConfig{
		Peers: 5, Epsilon: 1e-6, Seed: 19,
		Heartbeat: 20 * time.Millisecond, SuspectAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 60*time.Second)
	time.Sleep(10 * time.Millisecond)
	if err := c.Kill(3); err != nil {
		t.Fatalf("kill: %v", err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	if res.Leaves == 0 {
		t.Fatal("failure detector never removed the dead peer")
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	if c.NumLive() != 4 {
		t.Fatalf("live peers = %d, want 4", c.NumLive())
	}
}

// TestMembershipValidation pins the refusal paths: the last live peer
// cannot leave, a departed slot cannot leave again or restart, and a
// departed slot's counters stay in the totals.
func TestMembershipValidation(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(60, 41))
	c, err := NewCluster(g, ClusterConfig{Peers: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Leave(0); err != nil {
		t.Fatalf("first leave: %v", err)
	}
	if err := c.Leave(0); err == nil {
		t.Fatal("double leave succeeded")
	}
	if err := c.Leave(1); err == nil {
		t.Fatal("last live peer left")
	}
	if err := c.Restart(0); err == nil {
		t.Fatal("restart of departed slot succeeded")
	}
	if err := c.Kill(0); err == nil {
		t.Fatal("kill of departed slot succeeded")
	}
	if got := c.NumLive(); got != 1 {
		t.Fatalf("NumLive = %d, want 1", got)
	}
	if got := c.NumPeers(); got != 2 {
		t.Fatalf("NumPeers = %d, want 2 (slots are never reused)", got)
	}
}

// TestChaosMembershipJoinLeave is the acceptance scenario for dynamic
// membership: under injected connection faults, one peer is killed
// permanently mid-computation (the failure detector must notice and
// hand its range to its successor — no operator restart) and a fresh
// peer joins mid-computation. The cluster must converge to the
// centralized baseline with zero rank mass lost across the handoffs.
func TestChaosMembershipJoinLeave(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 43))
	ft := NewFaultTransport(nil, FaultConfig{
		Seed:      77,
		ResetProb: 0.05,
		DropProb:  0.03,
		DupProb:   0.05,
		DelayProb: 0.05,
		MaxDelay:  2 * time.Millisecond,
	})
	c, err := NewCluster(g, ClusterConfig{
		Peers: 6, Epsilon: 1e-6, Seed: 3, Transport: ft,
		Heartbeat: 25 * time.Millisecond, SuspectAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 120*time.Second)

	time.Sleep(20 * time.Millisecond)
	if err := c.Kill(2); err != nil { // permanent: never restarted
		t.Fatalf("kill: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Join(); err != nil {
		t.Fatalf("join: %v", err)
	}

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	if res.Leaves == 0 {
		t.Fatal("failure detector never removed the killed peer")
	}
	if res.Joins != 1 {
		t.Fatalf("joins = %d, want 1", res.Joins)
	}
	if res.Migrated == 0 {
		t.Fatal("membership churn migrated no documents")
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	assertResidualsPushed(t, c, 1e-6)
	t.Logf("membership chaos: %d msgs, %d migrated docs, %d forwarded, %d leaves, %d joins, faults %+v",
		res.Messages, res.Migrated, res.Forwarded, res.Leaves, res.Joins, ft.Stats())
}

// TestMembershipJoinLeaveWhileForwarding joins and removes peers over
// and over while the cluster computes, so updates keep racing the
// migrations and get forwarded, and every peer keeps resolving owners
// while the cluster rewrites its placement: under -race a peer that
// read the cluster's live table would be caught here. Nothing may be
// lost, and the ranks must still be the centralized ones.
func TestMembershipJoinLeaveWhileForwarding(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(3000, 47))
	c, err := NewCluster(g, ClusterConfig{Peers: 6, Epsilon: 1e-7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := runAsync(c, 120*time.Second)
	for k := 0; k < 4; k++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := c.Join(); err != nil {
			t.Fatalf("join %d: %v", k, err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := c.Leave(k); err != nil {
			t.Fatalf("leave %d: %v", k, err)
		}
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	if res.Joins != 4 || res.Leaves != 4 {
		t.Fatalf("%d joins and %d leaves, want 4 of each", res.Joins, res.Leaves)
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	if res.Forwarded == 0 {
		t.Fatal("no update raced a migration: the test exercised no forwarding")
	}
	t.Logf("%d migrated docs, %d forwarded updates, %d msgs", res.Migrated, res.Forwarded, res.Messages)
}
