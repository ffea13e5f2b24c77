package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameBatchEpoch, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameBatchEpoch || string(payload) != "hello" {
		t.Fatalf("round trip: %c %q", typ, payload)
	}
	// Empty payload.
	if err := writeFrame(&buf, framePing, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = readFrame(&buf)
	if err != nil || typ != framePing || len(payload) != 0 {
		t.Fatalf("empty frame: %c %v %v", typ, payload, err)
	}
}

// TestFrameRejectsHugeLength: a well-formed length past maxFrameBytes is
// refused before its payload is allocated or read, and so is a length
// whose fourth byte does not end it.
func TestFrameRejectsHugeLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0x7f, frameBatchEpoch} // 2^28-1 bytes
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("256MB frame header: %v, want the limit refused", err)
	}
	raw = []byte{0xff, 0xff, 0xff, 0xff, frameBatchEpoch}
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("unterminated frame length: %v, want it refused", err)
	}
}

func TestBatchCodec(t *testing.T) {
	in := []p2p.Update{{Doc: 7, Delta: 0.125}, {Doc: 1 << 20, Delta: -3.5}}
	out, err := decodeBatch(appendUpdates(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("batch round trip: %v", out)
	}
	if _, err := decodeBatch([]byte{1, 2}); err == nil {
		t.Fatal("accepted short batch")
	}
	if _, err := decodeBatch(append(appendUpdates(nil, in), 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestClusterComputesPagerankOverTCP(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 121))
	c, err := NewCluster(g, ClusterConfig{Peers: 6, Epsilon: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.Probes == 0 {
		t.Fatalf("missing stats: %+v", res)
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range ref.Ranks {
		rel := math.Abs(res.Ranks[i]-ref.Ranks[i]) / ref.Ranks[i]
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1e-3 {
		t.Fatalf("TCP cluster max relative error %v", worst)
	}
	assertResidualsPushed(t, c, 1e-6)
}

// peersOnly dials through its Transport, and fails the test on any
// dial whose end is not a peer.
type peersOnly struct {
	Transport
	t *testing.T
}

func (tr peersOnly) Dial(from, to p2p.PeerID, addr string) (net.Conn, error) {
	if from < 0 || to < 0 {
		tr.t.Errorf("dial %d -> %d (%s): only peers dial", from, to, addr)
	}
	return tr.Transport.Dial(from, to, addr)
}

// TestOnlyPeersDial: the cluster reads its peers' counters and ranks in
// process, so every connection it opens is one peer's to another —
// fault-free, and across a Kill/Restart and a Join.
func TestOnlyPeersDial(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 37))
	for _, churn := range []bool{false, true} {
		c, err := NewCluster(g, ClusterConfig{Peers: 4, Epsilon: 1e-6, Seed: 17, Transport: peersOnly{TCPDialer(), t}})
		if err != nil {
			t.Fatal(err)
		}
		resCh := runAsync(c, 60*time.Second)
		if churn {
			time.Sleep(10 * time.Millisecond)
			if err := c.Kill(1); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			if err := c.Restart(1); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Join(); err != nil {
				t.Fatal(err)
			}
		}
		out := <-resCh
		c.Close()
		if out.err != nil {
			t.Fatal(out.err)
		}
		assertRanksMatch(t, g, out.res.Ranks, 1e-3)
		if out.res.Probes < 2 {
			t.Fatalf("churn %v: %d probes, want the two that stop the run", churn, out.res.Probes)
		}
	}
}

// TestClusterTightThresholdSmallGraph: ε = 1e-9 buys 1e-7 of the
// centralized ranks. The deltas cross as float32s — relative precision
// 6e-8 each — yet put no floor under the result: what a push rounds away
// stays in the pusher's residual, and the codec itself loses nothing.
func TestClusterTightThresholdSmallGraph(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(150, 122))
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Ranks {
		if math.Abs(res.Ranks[i]-ref.Ranks[i])/ref.Ranks[i] > 1e-7 {
			t.Fatalf("rank[%d]: %v vs %v", i, res.Ranks[i], ref.Ranks[i])
		}
	}
	if framed := res.Sent - res.Coalesced; res.UpdatesWide == 0 || res.UpdatesWide > framed/2 {
		t.Fatalf("%d of about %d framed updates crossed wide: want some (coalesced sums), and most narrow", res.UpdatesWide, framed)
	}
	if math.Abs(res.DeltaShipped-res.DeltaFolded) > 1e-9*res.DeltaShipped {
		t.Fatalf("shipped %v, folded %v", res.DeltaShipped, res.DeltaFolded)
	}
}

func TestClusterSinglePeer(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(20)
	c, err := NewCluster(g, ClusterConfig{Peers: 1, Epsilon: 1e-8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-1) > 1e-5 {
			t.Fatalf("rank[%d] = %v", i, r)
		}
	}
}

func TestClusterEdgelessGraphTerminates(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.NewBuilder(10).Build()
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-0.15) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want 0.15", i, r)
		}
	}
}

// TestNewClusterAllocatesPerPeerNotPerDocument: the placement lives in
// the slots' document lists and the ring holds only the peers, so
// set-up allocates per peer (listeners, rankers, shards), not per
// document. Not parallel: no other test's allocations may be counted.
func TestNewClusterAllocatesPerPeerNotPerDocument(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	const docs = 50_000
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 41))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Seed: 5})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := after.Mallocs - before.Mallocs
	if n >= docs/10 {
		t.Fatalf("NewCluster made %d allocations for %d documents on 4 peers, want under %d", n, docs, docs/10)
	}
	t.Logf("NewCluster: %d allocations for %d documents", n, docs)
}

// BenchmarkNewCluster is set-up per document at 100k documents on 8
// peers: placement, listeners and the rankers' shards. Close is not
// timed.
func BenchmarkNewCluster(b *testing.B) {
	const docs = 100_000
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 43))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(g, ClusterConfig{Peers: 8, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/docs, "ns/doc")
}

// TestNewClusterBuildsEachPeerFromThePlacement: NewCluster builds its
// peers concurrently, here more of them than there are cores. The
// placement is the serial seeded draw, and every slot's ranker holds
// exactly the documents it gives that slot, ascending, with every
// out-link's outbox naming the linked document's owner in it.
func TestNewClusterBuildsEachPeerFromThePlacement(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	const docs, seed = 3000, 9
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 47))
	peers := 2*runtime.GOMAXPROCS(0) + 3
	c, err := NewCluster(g, ClusterConfig{Peers: peers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r := rng.New(seed)
	owner := make([]p2p.PeerID, docs)
	held := make([][]graph.NodeID, peers)
	for d := range owner {
		o := r.Intn(peers)
		owner[d] = p2p.PeerID(o)
		held[o] = append(held[o], graph.NodeID(d))
	}
	if !slices.Equal(c.docPeer, owner) {
		t.Fatal("the placement is not the serial draw from the seed")
	}
	for i, s := range c.slots {
		if rows, _, _ := s.peer.rk.Rows(); !slices.Equal(rows, held[i]) {
			t.Fatalf("peer %d holds %d rows, want its %d placed documents in order", i, len(rows), len(held[i]))
		}
		// A fresh row pushes a share down every out-link, in row then link
		// order, into the outbox of the link's owner (indexed by PeerID+1).
		want := make([][]graph.NodeID, peers+1)
		for _, d := range held[i] {
			for _, to := range g.OutLinks(d) {
				want[owner[to]+1] = append(want[owner[to]+1], to)
			}
		}
		out := s.peer.rk.InitialOut()
		for box := range max(len(out), len(want)) {
			var got, exp []graph.NodeID
			if box < len(out) {
				for _, u := range out[box] {
					got = append(got, u.Doc)
				}
			}
			if box < len(want) {
				exp = want[box]
			}
			if !slices.Equal(got, exp) {
				t.Fatalf("peer %d: outbox %d holds %d links, want %d", i, box, len(got), len(exp))
			}
		}
	}
}

// TestBuildPeersClosesWhatItBuiltOnFailure: one build among more than
// there are cores fails. The failure is returned with its index, and
// every peer the other builds made is closed: none of their goroutines
// is left.
func TestBuildPeersClosesWhatItBuiltOnFailure(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(4)
	cfgs := make([]PeerConfig, 2*runtime.GOMAXPROCS(0)+3)
	for i := range cfgs {
		cfgs[i] = PeerConfig{ID: p2p.PeerID(i), Graph: g, DocPeer: make([]p2p.PeerID, 4)}
	}
	bad := len(cfgs) / 2
	cfgs[bad].Graph = nil
	peers, err := buildPeers(cfgs)
	if peers != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("building peer %d:", bad)) {
		t.Fatalf("buildPeers = %v, %v; want no peers and peer %d's failure", peers, err, bad)
	}
}

func TestClusterValidation(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := NewCluster(g, ClusterConfig{Peers: 0}); err == nil {
		t.Fatal("accepted zero peers")
	}
}

func TestPeerRejectsGarbageConnection(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p := cyclePeer(t)
	defer p.Close()
	// A client speaking garbage gets dropped without harming the peer.
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{1, 0, 0, 0, 'Z', 0})
	conn.Close()
	assertAnswersPing(t, p)
}

// TestServeConnAfterStopReturns: a connection acceptLoop accepted just
// before stop closed the listener can reach serveConn after stop has
// closed every inbound connection it knew of. serveConn must close it
// and return at once; reading it would hold up stop (and a Kill, with
// the cluster's lock held) until the remote sender gave up.
func TestServeConnAfterStopReturns(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p := cyclePeer(t)
	p.Close()
	local, remote := net.Pipe()
	defer remote.Close()
	done := make(chan struct{})
	p.wg.Add(1)
	go func() {
		p.serveConn(local)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		local.Close()
		<-done
		t.Fatal("serveConn read a connection that arrived after stop")
	}
	remote.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := remote.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the remote end reads %v, want io.EOF: the connection was left open", err)
	}
}

// assertAnswersPing checks that the peer still serves: a heartbeat ping
// on a fresh connection comes back as a pong.
func assertAnswersPing(t *testing.T, p *Peer) {
	t.Helper()
	if _, err := roundTrip(TCPDialer(), 0, 0, p.Addr(), 5*time.Second, framePing, nil, framePong); err != nil {
		t.Fatalf("peer no longer answers a ping: %v", err)
	}
}

// cyclePeer starts a standalone peer 0 owning every document of a
// 4-cycle. It is never started, so its counters move only if something
// a test sends it is folded. The caller closes it.
func cyclePeer(t *testing.T) *Peer {
	t.Helper()
	p, err := NewPeer(PeerConfig{Graph: graph.Cycle(4), DocPeer: make([]p2p.PeerID, 4), Docs: []graph.NodeID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPeers([]string{p.Addr()})
	return p
}

// rawPeer is cyclePeer plus a raw connection to it; the caller closes
// both.
func rawPeer(t *testing.T) (*Peer, net.Conn) {
	t.Helper()
	p := cyclePeer(t)
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return p, conn
}

// assertDropped checks that the peer answered the last write by closing
// the connection: no reply frame, and nothing folded.
func assertDropped(t *testing.T, p *Peer, conn net.Conn) {
	t.Helper()
	if typ, _, err := readFrame(conn); err != io.EOF {
		t.Fatalf("peer answered with frame %q, err %v; want the connection closed", typ, err)
	}
	if st := p.Stats(); st.Processed != 0 || st.DeltaFolded != 0 {
		t.Fatalf("peer folded a refused frame: processed %d, delta folded %v", st.Processed, st.DeltaFolded)
	}
}

// TestRetiredFramesAreRefused sends each frame type the protocol used
// to speak, with the payload its last decoder accepted: all are
// protocol violations now, and snapshot versions before the current one
// are refused by number.
func TestRetiredFramesAreRefused(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	le := binary.LittleEndian
	batch := appendUpdates(nil, []p2p.Update{{Doc: 0, Delta: 0.5}})
	// A one-slot view digest: count, then gone flag, no forward, epoch 2
	// and an empty address.
	view := le.AppendUint16(le.AppendUint64(le.AppendUint32(append(le.AppendUint32(nil, 1), 0), ^uint32(0)), 2), 0)
	frames := []struct {
		typ     byte
		payload []byte
	}{
		{'B', batch}, // unsequenced batch
		{'U', append(le.AppendUint64(le.AppendUint32(nil, 1), 1), batch...)},                     // sender, seq, batch
		{'V', append(le.AppendUint64(le.AppendUint32(le.AppendUint32(nil, 1), 0), 1), batch...)}, // sender, origDest, seq, batch
		{'A', le.AppendUint64(nil, 1)}, // plain cumulative ack
		{'X', nil},                     // remote shutdown
		{'Q', nil},                     // termination probe request
		{'R', nil},                     // rank collection request
		{'W', view},                    // anti-entropy view request
		{'D', view},                    // anti-entropy view response
	}
	for _, fr := range frames {
		p, conn := rawPeer(t)
		if err := writeFrame(conn, fr.typ, fr.payload); err != nil {
			t.Fatal(err)
		}
		assertDropped(t, p, conn)
		// In particular 'X' did not stop the peer.
		assertAnswersPing(t, p)
		conn.Close()
		p.Close()
	}

	var cur bytes.Buffer
	if err := EncodeSnapshot(fuzzSeedSnapshot(), &cur); err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint64{3, 4, 5, 6, 7, 8, 9} {
		hdr := append([]byte(nil), cur.Bytes()...)
		le.PutUint64(hdr[len(peerSnapMagic):], version)
		_, err := DecodeSnapshot(bytes.NewReader(hdr))
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Fatalf("version %d snapshot: err %v, want unsupported snapshot version", version, err)
		}
	}
}

// TestCheckpointRefusesTwoFramesInFlight: a stream keeps one frame in
// flight, so a checkpoint stream that carries two is refused, not
// installed.
func TestCheckpointRefusesTwoFramesInFlight(t *testing.T) {
	snap := fuzzSeedSnapshot()
	ob := &snap.Outbound[0]
	ob.Unacked = append(ob.Unacked, UnackedFrame{Seq: ob.NextSeq, Updates: []p2p.Update{{Doc: 4, Delta: 0.5}}})
	ob.NextSeq++
	var buf bytes.Buffer
	if err := EncodeSnapshot(snap, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(&buf); err == nil {
		t.Fatal("decoded a stream with two unacknowledged frames")
	}
}

// TestOversizedOrigDestIsRefused: the receiver sizes its membership
// view by a frame's origDest, so a peer id past any view must die in
// the decoder — one 28-byte frame naming slot 1<<22 used to grow the
// view to four million slots.
func TestOversizedOrigDestIsRefused(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p, conn := rawPeer(t)
	defer p.Close()
	defer conn.Close()
	before := len(p.view())
	if err := writeFrame(conn, frameBatchEpoch, encodeBatchEpoch(nil, 1, 1<<22, 1, 7, nil)); err != nil {
		t.Fatal(err)
	}
	assertDropped(t, p, conn)
	if got := len(p.view()); got != before {
		t.Fatalf("view grew from %d to %d slots on a frame for a slot nobody has", before, got)
	}
}

// TestConcurrentCloseIsSafe closes one peer from several goroutines at
// once, as Close, Kill and a cluster shutdown can.
func TestConcurrentCloseIsSafe(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	for round := 0; round < 20; round++ {
		p := cyclePeer(t)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Close()
			}()
		}
		wg.Wait()
	}
}
