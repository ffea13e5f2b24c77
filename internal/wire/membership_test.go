package wire

import (
	"testing"
	"time"

	"dpr/internal/graph"
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

// TestJoinTakesOverKeyRange adds a fresh peer mid-computation: it
// takes its canonical key range from its ring successor and the run
// still converges exactly.
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
	slot, err := c.Join()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if slot != 4 {
		t.Fatalf("join slot = %d, want 4", slot)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	if res.Joins != 1 {
		t.Fatalf("joins = %d, want 1", res.Joins)
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	t.Logf("join migrated %d docs; %d forwarded updates", res.Migrated, res.Forwarded)
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
	t.Logf("membership chaos: %d msgs, %d migrated docs, %d forwarded, %d leaves, %d joins, faults %+v",
		res.Messages, res.Migrated, res.Forwarded, res.Leaves, res.Joins, ft.Stats())
}
