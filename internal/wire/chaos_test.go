package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// assertRanksMatch compares distributed ranks against the centralized
// baseline at the same tolerance as the fault-free cluster tests.
func assertRanksMatch(t *testing.T, g *graph.Graph, ranks []float64, tol float64) {
	t.Helper()
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range ref.Ranks {
		rel := math.Abs(ranks[i]-ref.Ranks[i]) / ref.Ranks[i]
		if rel > worst {
			worst = rel
		}
	}
	if worst > tol {
		t.Fatalf("max relative rank error %v exceeds %v", worst, tol)
	}
}

// assertResidualsPushed is the residual-bound oracle: once a run is
// over, no row anywhere — a peer's ranker or a crashed slot's
// checkpoint — still holds an un-pushed rank change past ε of its rank
// (D-Iteration's remaining-fluid bound). Comparing successive recomputes
// instead lets sub-ε steps pile up in rank − last without limit; so does
// a hand-over that moves rows saved at an earlier stage of the threshold
// schedule and never sweeps them.
func assertResidualsPushed(t *testing.T, c *Cluster, eps float64) {
	t.Helper()
	rank := make([]float64, c.g.NumNodes()) // by document
	check := func(docs []graph.NodeID, last []float64) {
		for i, d := range docs {
			if res := math.Abs(rank[d]-last[i]) / math.Abs(rank[d]); res > eps {
				t.Errorf("doc %d: un-pushed residual %v of its rank (rank %v, pushed %v), want <= %v", d, res, rank[d], last[i], eps)
			}
		}
	}
	slots, _ := c.table()
	visit(slots,
		func(s slot) {
			s.peer.rk.RanksInto(rank)
			docs, _, last := s.peer.rk.Rows()
			check(docs, last)
		},
		func(snap *PeerSnapshot) {
			p2p.UniformRanksInto(rank, c.cfg.Damping, snap.Docs, snap.Acc)
			check(snap.Docs, snap.Last)
		})
}

// assertNoMassLost checks the update-conservation invariant: every
// delta that was shipped was eventually folded (modulo floating-point
// association order in the two accumulators).
func assertNoMassLost(t *testing.T, res ClusterResult) {
	t.Helper()
	diff := math.Abs(res.DeltaShipped - res.DeltaFolded)
	scale := math.Max(1, math.Abs(res.DeltaShipped))
	if diff > 1e-6*scale {
		t.Fatalf("delta mass not conserved: shipped %v folded %v (diff %v)",
			res.DeltaShipped, res.DeltaFolded, diff)
	}
}

// TestChaosResetsPartitionAndCrashes is the acceptance scenario: 10%%
// connection resets (plus duplicates and delays), one scripted
// partition, and two peer crash/restart cycles, all while the
// computation runs — and the final ranks must still match the
// centralized baseline at the fault-free tolerance with zero updates
// lost.
func TestChaosResetsPartitionAndCrashes(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 121))
	ft := NewFaultTransport(nil, FaultConfig{
		Seed:      99,
		ResetProb: 0.10,
		DupProb:   0.05,
		DelayProb: 0.05,
		MaxDelay:  2 * time.Millisecond,
	})
	c, err := NewCluster(g, ClusterConfig{Peers: 6, Epsilon: 1e-6, Seed: 1, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type runOut struct {
		res ClusterResult
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		res, err := c.Run(120 * time.Second)
		resCh <- runOut{res, err}
	}()

	// Chaos script, concurrent with the run. Each event is harmless if
	// the run has already quiesced (Kill/Restart of a stopped peer work
	// on its final state), so the script needs no synchronization with
	// the probe loop.
	script := []func() error{
		func() error { ft.Partition(1, 2); return nil },
		func() error { ft.Heal(1, 2); return nil },
		func() error { return c.Kill(2) },
		func() error { return c.Restart(2) },
		func() error { return c.Kill(4) },
		func() error { return c.Restart(4) },
	}
	for i, event := range script {
		time.Sleep(15 * time.Millisecond)
		if err := event(); err != nil {
			t.Fatalf("chaos event %d: %v", i, err)
		}
	}

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	st := ft.Stats()
	if st.Resets == 0 {
		t.Fatal("fault injector never reset a connection")
	}
	if res.Retries == 0 || res.Reconnects == 0 {
		t.Fatalf("chaos run shows no retry activity: %+v", res)
	}
	if res.Redeliveries == 0 {
		t.Fatalf("resets should force redeliveries: %+v", res)
	}
	if res.DupDropped == 0 {
		t.Fatalf("redelivered or duplicated frames should be suppressed: %+v", res)
	}
	t.Logf("chaos: %d msgs, %d retries, %d reconnects, %d redeliveries, %d dup-dropped, faults %+v",
		res.Messages, res.Retries, res.Reconnects, res.Redeliveries, res.DupDropped, st)
}

// TestChaosDropsAndDialFailures exercises detectable frame loss and
// failed connection establishment: every dropped frame must be
// redelivered as the sender's frame in flight.
func TestChaosDropsAndDialFailures(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 55))
	ft := NewFaultTransport(nil, FaultConfig{
		Seed:         7,
		DropProb:     0.08,
		DialFailProb: 0.15,
	})
	c, err := NewCluster(g, ClusterConfig{Peers: 5, Epsilon: 1e-6, Seed: 3, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(120 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
	st := ft.Stats()
	if st.Drops == 0 || st.DialFails == 0 {
		t.Fatalf("fault injector idle: %+v", st)
	}
	if res.Retries == 0 {
		t.Fatalf("drops should force retries: %+v", res)
	}
}

// TestKillRestartRecovery runs crash/restart cycles with no
// probabilistic faults at all, so any rank error is attributable to
// the checkpoint/restore path itself.
func TestKillRestartRecovery(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 77))
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Epsilon: 1e-6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type runOut struct {
		res ClusterResult
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		res, err := c.Run(120 * time.Second)
		resCh <- runOut{res, err}
	}()
	for _, i := range []int{1, 3} {
		time.Sleep(10 * time.Millisecond)
		if err := c.Kill(i); err != nil {
			t.Fatalf("kill %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := c.Restart(i); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertRanksMatch(t, g, out.res.Ranks, 1e-3)
	assertNoMassLost(t, out.res)
	assertResidualsPushed(t, c, 1e-6)
}

// TestKillWhileIdleThenRestart kills a peer after quiescence-ish idle
// and restarts it before the run is observed complete; the restored
// peer must not re-push its initial ranks (that would double-count
// mass).
func TestKillWhileIdleThenRestart(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(40)
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type runOut struct {
		res ClusterResult
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		res, err := c.Run(60 * time.Second)
		resCh <- runOut{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	for i, r := range out.res.Ranks {
		if math.Abs(r-1) > 1e-5 {
			t.Fatalf("rank[%d] = %v, want 1", i, r)
		}
	}
	assertNoMassLost(t, out.res)
}

// TestPartitionParksUpdatesUntilHealed verifies churn-safe
// termination: while a pair is partitioned, updates for the far side
// sit in the retry queue and the probe must keep counting them as
// outstanding (sent > processed), so quiescence cannot be declared
// early.
func TestPartitionParksUpdatesUntilHealed(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(300, 31))
	ft := NewFaultTransport(nil, FaultConfig{Seed: 5})
	// Partition peers 0 and 1 before the computation even starts.
	ft.Partition(0, 1)
	c, err := NewCluster(g, ClusterConfig{Peers: 2, Epsilon: 1e-6, Seed: 11, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type runOut struct {
		res ClusterResult
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		res, err := c.Run(120 * time.Second)
		resCh <- runOut{res, err}
	}()
	// With the only inter-peer pair cut, the run must not quiesce:
	// cross-peer updates are parked, keeping sent > processed.
	deadline := time.Now().Add(5 * time.Second)
	sawImbalance := false
	for time.Now().Before(deadline) {
		select {
		case out := <-resCh:
			t.Fatalf("run quiesced under a full partition: %+v err=%v", out.res, out.err)
		default:
		}
		sent, processed := c.DebugCounters()
		if sent > processed {
			sawImbalance = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawImbalance {
		t.Fatal("probe never saw parked updates as outstanding")
	}
	ft.Heal(0, 1)
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertRanksMatch(t, g, out.res.Ranks, 1e-3)
	assertNoMassLost(t, out.res)
	if ft.Stats().PartitionRefusals == 0 {
		t.Fatal("partition never refused a dial or write")
	}
}

// TestSnapshotCodecRoundTrip checks that every PeerSnapshot field
// survives EncodeSnapshot/DecodeSnapshot.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := &PeerSnapshot{
		ID:   3,
		Docs: []graph.NodeID{1, 4, 9},
		Acc:  []float64{0.01, -0.02, 0.03},
		Last: []float64{0.49, 1.24, 2.74},
		LastSeq: []SeqEntry{
			{Src: 0, Dest: 3, Seq: 17},
			{Src: 2, Dest: 3, Seq: 4},
			{Src: 2, Dest: 5, Seq: 9}, // adopted stream of a departed peer
		},
		Outbound: []OutboundState{
			{
				Src:     3,
				Dest:    0,
				NextSeq: 9,
				Unacked: []UnackedFrame{
					{Seq: 8, Updates: []p2p.Update{{Doc: 4, Delta: -0.25}, {Doc: 9, Delta: 1}}},
				},
				Pending: []p2p.Update{{Doc: 2, Delta: 0.125}},
			},
			{Src: 3, Dest: 2, NextSeq: 3, Pending: []p2p.Update{}},
			{
				// Stream framed by departed peer 5, adopted by this one.
				Src:     5,
				Dest:    2,
				NextSeq: 4,
				Unacked: []UnackedFrame{
					{Seq: 3, Updates: []p2p.Update{{Doc: 7, Delta: 0.75}}},
				},
				Pending: []p2p.Update{},
			},
		},
		Epochs: []uint64{0, 2, 1, 0, 0, 3}, // ownership-epoch vector, one per ring slot
		PeerStats: PeerStats{
			Sent:          100,
			Processed:     90,
			Retries:       5,
			Reconnects:    2,
			Redeliveries:  3,
			Coalesced:     7,
			DupDropped:    1,
			Forwarded:     4,
			Misdropped:    0,
			EpochRejected: 2,
			DeltaShipped:  12.5,
			DeltaFolded:   11.25,
		},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(snap, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", snap, got)
	}
	// Truncations must be rejected, never crash.
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := DecodeSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("accepted snapshot truncated to %d bytes", cut)
		}
	}
}

// TestRetryPolicyDelay pins the backoff: 5ms, doubling per consecutive
// failure, capped at 250ms, jittered within ±25 %.
func TestRetryPolicyDelay(t *testing.T) {
	if retryBase != 5*time.Millisecond || retryMax != 250*time.Millisecond || retryJitter != 0.5 {
		t.Fatalf("backoff constants %v, %v, %v; want 5ms, 250ms, 0.5", retryBase, retryMax, retryJitter)
	}
	r := rng.New(42)
	for fails := 1; fails <= 10; fails++ {
		want := min(5*time.Millisecond<<(fails-1), 250*time.Millisecond)
		lo, hi := time.Duration(float64(want)*0.75), time.Duration(float64(want)*1.25)
		if d := backoffDelay(r, fails); d < lo || d > hi {
			t.Fatalf("fails=%d: delay %v outside [%v, %v]", fails, d, lo, hi)
		}
	}
}
