package wire

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// TestOverloadFirehoseLosslessShedding is the acceptance scenario for
// overload protection: both links into peer 2 are trickled to ~1.5MB/s
// (localhost TCP otherwise moves hundreds of MB/s, so the senders
// outpace the receiver's drain rate by far more than 10x) while the
// failure detector runs. The overload must be sustained across
// multiple suspect windows, and the protocol must respond by holding
// one frame in flight per stream and coalescing the backlog in the
// retry queues — never by unbounded queueing, dropped deltas, or a
// false eviction of the slow-but-alive peer. After the throttle lifts, the run converges to
// the same fixed point as an unloaded run of the same placement.
func TestOverloadFirehoseLosslessShedding(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 77))

	// Unloaded reference run: same graph, same placement seed, no
	// throttling, no detector.
	ref, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(120 * time.Second)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	ft := NewFaultTransport(nil, FaultConfig{Seed: 7})
	const (
		heartbeat = 40 * time.Millisecond
		suspects  = 2
	)
	c, err := NewCluster(g, ClusterConfig{
		Peers: 3, Epsilon: 1e-9, Seed: 5, Transport: ft,
		Heartbeat: heartbeat, SuspectAfter: suspects,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Throttle every link into the victim before the firehose opens.
	// Heartbeat pings are smaller than one chunk, so the victim stays
	// responsive to the detector while its bulk intake crawls.
	const slow = p2p.PeerID(2)
	ft.SetLinkTrickle(0, slow, 1500, time.Millisecond)
	ft.SetLinkTrickle(1, slow, 1500, time.Millisecond)
	resCh := runAsync(c, 120*time.Second)

	// Queued-frame memory must stay bounded: at most one unacknowledged
	// frame per stream, over the 6 ordered peer pairs. Track the gauge's
	// peak while overloaded.
	const unackedBound = 6
	peak := 0.0
	sample := func() {
		if v := c.TelemetrySnapshot().GaugeValue("wire_unacked_frames"); v > peak {
			peak = v
		}
	}
	// A run can end within 200 ms, every poll of the gauge reading 0
	// while a thousand frames were acknowledged, so the gate is the
	// count of acknowledged frames, which stays put.
	waitCounter(t, 60*time.Second, "a frame acknowledged under the trickle", func() bool {
		sample()
		return framesAcked(c) > 0
	})
	// Hold the overload across at least two full suspect windows, so a
	// wrongly starving detector would have had every chance to evict.
	hold := time.Now().Add(2 * suspects * heartbeat)
	for time.Now().Before(hold) {
		sample()
		time.Sleep(2 * time.Millisecond)
	}
	ft.SetLinkTrickle(0, slow, 0, 0)
	ft.SetLinkTrickle(1, slow, 0, 0)

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res

	if res.Coalesced == 0 {
		t.Fatal("no deltas coalesced into queued entries behind a frame in flight")
	}
	if res.EvictionsQuorum != 0 {
		t.Fatalf("slow-but-alive peer evicted %d times, want 0", res.EvictionsQuorum)
	}
	if peak > unackedBound {
		t.Fatalf("peak unacked frames %v exceeds one per stream (%d)", peak, unackedBound)
	}
	assertNoMassLost(t, res)
	assertRegistryConservation(t, c.TelemetrySnapshot(), res.Ranks)
	for i := range res.Ranks {
		rel := res.Ranks[i] - refRes.Ranks[i]
		if rel < 0 {
			rel = -rel
		}
		if rel/refRes.Ranks[i] > 1e-6 {
			t.Fatalf("doc %d: overloaded run %v vs unloaded run %v exceeds 1e-6 relative",
				i, res.Ranks[i], refRes.Ranks[i])
		}
	}
	t.Logf("firehose: %d msgs, coalesced %d, peak unacked %v", res.Messages, res.Coalesced, peak)
}

// TestOverloadMembershipLeaveUnderFirehose: with every link into peer 3
// trickled and its senders each holding a frame in flight, a Leave —
// whose adopt runs as a control operation on the successor's inbox,
// behind whatever frames are queued there — must still complete
// promptly instead of queueing behind the firehose.
func TestOverloadMembershipLeaveUnderFirehose(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 83))
	ft := NewFaultTransport(nil, FaultConfig{Seed: 11})
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Epsilon: 1e-6, Seed: 13, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const slow = p2p.PeerID(3)
	for _, from := range []p2p.PeerID{0, 1, 2} {
		ft.SetLinkTrickle(from, slow, 1500, time.Millisecond)
	}
	resCh := runAsync(c, 120*time.Second)
	// The run lasts a few tenths of a second, so wait on a count that
	// stays put, not on the frames-in-flight gauge a poll can miss.
	waitCounter(t, 60*time.Second, "a frame acknowledged under the trickle", func() bool {
		return framesAcked(c) > 0
	})

	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- c.Leave(1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Leave under the firehose took %v", time.Since(start))
	case <-time.After(20 * time.Second):
		t.Fatal("Leave wedged for 20s behind the firehose")
	}

	for _, from := range []p2p.PeerID{0, 1, 2} {
		ft.SetLinkTrickle(from, slow, 0, 0)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if res.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1", res.Leaves)
	}
	if res.Misdropped != 0 {
		t.Fatalf("%d updates lost to unresolved ownership", res.Misdropped)
	}
	assertSingleOwnership(t, c)
	assertNoMassLost(t, res)
	assertRegistryConservation(t, c.TelemetrySnapshot(), res.Ranks)
	assertRanksMatch(t, g, res.Ranks, 1e-3)
}

// framesAcked is how many frames the cluster's senders saw acknowledged:
// the count of send-to-ack latencies, which only grows.
func framesAcked(c *Cluster) uint64 {
	for _, h := range c.TelemetrySnapshot().Hists {
		if h.Name == "wire_send_latency_seconds" {
			return h.Count
		}
	}
	return 0
}

// TestOverloadDelayedLinkConverges gives every write into peer 2 a
// constant 12 ms latency for the whole run, with the default flow
// control and nothing else configured. One fresh frame per stream is
// the whole defence: the run must converge losslessly, and the frames
// in flight must never exceed one per stream (6 on 3 peers), however
// far behind the delayed links fall.
func TestOverloadDelayedLinkConverges(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 91))
	ft := NewFaultTransport(nil, FaultConfig{Seed: 17})
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-6, Seed: 19, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const slow = p2p.PeerID(2)
	ft.SetLinkDelay(0, slow, 12*time.Millisecond)
	ft.SetLinkDelay(1, slow, 12*time.Millisecond)
	resCh := runAsync(c, 120*time.Second)
	const unackedBound = 6 // one per ordered peer pair
	peak := 0.0
	var out struct {
		res ClusterResult
		err error
	}
	for done := false; !done; {
		select {
		case out = <-resCh:
			done = true
		case <-time.After(2 * time.Millisecond):
			if v := c.TelemetrySnapshot().GaugeValue("wire_unacked_frames"); v > peak {
				peak = v
			}
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if peak > unackedBound {
		t.Fatalf("peak unacked frames %v exceeds one per stream (%d)", peak, unackedBound)
	}
	assertNoMassLost(t, res)
	assertRegistryConservation(t, c.TelemetrySnapshot(), res.Ranks)
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	t.Logf("delayed link: %d msgs, coalesced %d, peak unacked %v", res.Messages, res.Coalesced, peak)
}

// TestDefaultWindowHoldsOneFreshFrame drives the flow control over a
// raw connection: a fake receiver that withholds acknowledgements gets
// exactly one frame.
// Updates queued meanwhile wait in the retry queue and leave together,
// as one frame, once a credit ack arrives — each delivered exactly
// once.
func TestDefaultWindowHoldsOneFreshFrame(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	// Docs 1..8 live on peer 1, which the test impersonates with a raw
	// listener; updates are injected straight into the retry queue.
	adj := make([][]graph.NodeID, 9)
	for i := 1; i < 9; i++ {
		adj[0] = append(adj[0], graph.NodeID(i))
	}
	g := graph.FromAdjacency(adj)
	docPeer := make([]p2p.PeerID, 9)
	for i := 1; i < 9; i++ {
		docPeer[i] = 1
	}
	p, err := NewPeer(PeerConfig{ID: 0, Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p.SetPeers([]string{p.Addr(), ln.Addr().String()})

	var mu sync.Mutex
	var frames [][]p2p.Update // first delivery of each seq, in arrival order
	seen := map[uint64]bool{}
	connCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		connCh <- conn
		for {
			typ, payload, err := readFrame(conn)
			if err != nil {
				return
			}
			if typ != frameBatchEpoch {
				continue
			}
			_, _, seq, _, us, err := decodeBatchEpoch(payload)
			if err != nil {
				continue
			}
			mu.Lock()
			if !seen[seq] {
				seen[seq] = true
				frames = append(frames, us)
			}
			mu.Unlock()
		}
	}()
	received := func() [][]p2p.Update {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(frames)
	}
	waitFrames := func(want int) {
		t.Helper()
		waitCounter(t, 10*time.Second, "frames to arrive", func() bool {
			return len(received()) >= want
		})
	}

	// Six updates for six documents, spaced so each would be framed on
	// its own if credit allowed: only the first may leave.
	for i := 1; i <= 6; i++ {
		p.queueRemote(outboxTo(1, []p2p.Update{{Doc: graph.NodeID(i), Delta: 0.1}}))
		time.Sleep(20 * time.Millisecond)
	}
	waitFrames(1)
	time.Sleep(300 * time.Millisecond) // a second frame would arrive well within this
	if n := len(received()); n != 1 {
		t.Fatalf("receiver saw %d frames with no ack sent, want exactly 1", n)
	}

	conn := <-connCh
	defer conn.Close()

	// Ack frame 1: the five updates queued behind it leave as one frame.
	if err := writeFrame(conn, frameCredit, encodeCredit(nil, 1)); err != nil {
		t.Fatal(err)
	}
	waitFrames(2)
	time.Sleep(300 * time.Millisecond)
	got := received()
	if len(got) != 2 || len(got[0]) != 1 || len(got[1]) != 5 {
		t.Fatalf("frames %v, want one update then the other five together", got)
	}
	docs := map[graph.NodeID]int{}
	for _, us := range got {
		for _, u := range us {
			docs[u.Doc]++
		}
	}
	for d := graph.NodeID(1); d <= 6; d++ {
		if docs[d] != 1 {
			t.Fatalf("doc %d delivered %d times, want exactly once (frames %v)", d, docs[d], got)
		}
	}
}

// TestOverloadBlockedStreamIsNotWoken pins the wake rule: an enqueue
// onto a stream whose frame is still in flight only queues; the sender,
// awaiting that frame's reply, frames it once the reply is in. The
// sender's loop is never started, so its wake channel holds every
// wake-up it was sent.
func TestOverloadBlockedStreamIsNotWoken(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	t.Run("window=1", func(t *testing.T) {
		p, err := NewPeer(PeerConfig{ID: 0, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 1, 1, 1}, Docs: []graph.NodeID{0}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// Two updates queue behind frame 1 of the stream to peer 1, whose
		// ack is still owed.
		st := stream{src: 0, dest: 1}
		s := p.newSender(st)
		s.inflight = &frameRec{seq: 1, us: []p2p.Update{{Doc: 1, Delta: 0.5}}, attempts: 1}
		s.nextSeq = 2
		p.sendMu.Lock()
		p.senders[st] = s
		p.sendMu.Unlock()

		p.queueRemote(outboxTo(1, []p2p.Update{{Doc: 2, Delta: 0.25}, {Doc: 3, Delta: 0.25}}))
		p.rqMu.Lock()
		queued := p.rq.Queued(1)
		p.rqMu.Unlock()
		if queued != 2 {
			t.Fatalf("%d updates queued, want 2", queued)
		}
		if n := len(s.wake); n != 0 {
			t.Fatalf("%d wakes queued after an enqueue, want 0", n)
		}
	})
}
