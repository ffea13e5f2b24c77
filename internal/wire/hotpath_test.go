package wire

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

func TestBatchEpochCodecAllocations(t *testing.T) {
	us := make([]p2p.Update, 4096)
	var buf []byte
	var enc, dec streamHead
	seq := uint64(3)
	allocs := testing.AllocsPerRun(20, func() {
		buf = appendBatchFrame(buf[:0], &enc, 1, 2, seq, 4, us)
		seq++
		if _, _, _, _, got, err := decodeStreamBatch(framePayload(buf), &dec); err != nil || len(got) != len(us) {
			t.Fatalf("round trip: %d updates, %v", len(got), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("encode+decode of a %d-update frame allocates %v times, want at most 1 (the decoded updates)", len(us), allocs)
	}
}

// frameFixture is a full frame as an 8-peer cluster over 500k documents
// builds one: 4096 updates for documents of the destination's share, in
// the order the folds queued them, the deltas bfloat16 shares but for a
// tenth of float32 shares the ranker's guard kept and a tenth of sums
// that no longer fit a float32.
func frameFixture() []p2p.Update {
	r := rng.New(19)
	us := make([]p2p.Update, 4096)
	for i := range us {
		f := float32(r.Float64())
		us[i] = p2p.Update{Doc: graph.NodeID(8*r.Intn(500000/8) + 5), Delta: float64(math.Float32frombits(math.Float32bits(f) &^ 0xffff))}
		switch i % 10 {
		case 0:
			us[i].Delta = float64(f) + 1e-9
		case 5:
			us[i].Delta = float64(f)
		}
	}
	return us
}

// TestFrameBuildAllocations holds building a frame — queued, then
// merged and ordered for the codec by the retry queue's drain, and
// copied out as the frame — to the copy: the queue keeps its sort
// scratch.
func TestFrameBuildAllocations(t *testing.T) {
	queued := frameFixture()
	q := p2p.NewRetryQueue()
	q.DeferMerge(1, queued...)
	q.DrainN(1, batchCap)
	allocs := testing.AllocsPerRun(20, func() {
		q.DeferMerge(1, queued...)
		us := slices.Clone(q.DrainN(1, batchCap))
		if len(us) == 0 || !slices.IsSortedFunc(us, func(a, b p2p.Update) int { return cmp.Compare(a.Doc, b.Doc) }) {
			t.Fatal("not sorted")
		}
	})
	if allocs > 1 {
		t.Fatalf("building a %d-update frame allocates %v times, want at most 1 (the frame's own updates)", len(queued), allocs)
	}
}

// wire8Frame is a frame shaped like those a seed-42 wire-8 solve
// sends: about 1,000 documents, ordered, with geometric gaps of mean
// 120, and shares that are bfloat16s over 16 exponents, 2 % of them
// negative, but for 6 % of float32s.
func wire8Frame() []p2p.Update {
	r := rng.New(45)
	us := make([]p2p.Update, 1000)
	doc := 0
	for i := range us {
		doc += int(-120 * math.Log(1-r.Float64()))
		bits := uint32(127-24+r.Intn(16))<<23 | uint32(r.Intn(1<<7))<<16
		if r.Intn(50) == 0 {
			bits |= 1 << 31
		}
		if r.Intn(100) < 6 {
			bits |= uint32(1 + r.Intn(1<<16-1))
		}
		us[i] = p2p.Update{Doc: graph.NodeID(doc), Delta: float64(math.Float32frombits(bits))}
	}
	return us
}

// BenchmarkBatchEpochCodec is the wire cost of one update, in bytes and
// in nanoseconds: rendered into the sender's frame buffer and parsed
// back out of the reader's, as the frames after a connection's first.
// fold is frameFixture ordered, a full frame of 4,096 uniformly spread
// documents; wire-8 is wire8Frame.
func BenchmarkBatchEpochCodec(b *testing.B) {
	fold := frameFixture()
	p2p.SortUpdates(fold)
	for _, fx := range []struct {
		name string
		us   []p2p.Update
	}{{"fold", fold}, {"wire-8", wire8Frame()}} {
		b.Run(fx.name, func(b *testing.B) {
			var buf []byte
			var enc, dec streamHead
			b.ReportAllocs()
			b.ResetTimer()
			for i, seq := 0, uint64(0); i < b.N; i, seq = i+len(fx.us), seq+1 {
				buf = appendBatchFrame(buf[:0], &enc, 1, 2, seq, 4, fx.us)
				if _, _, _, _, _, err := decodeStreamBatch(framePayload(buf), &dec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf))/float64(len(fx.us)), "B/update")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
		})
	}
}

// BenchmarkSnapshotCodec is what a checkpoint costs per row at the size
// bench/'s checkpoint replay encodes: one peer's 62,500 of 500k
// documents on 8 peers, the same value as accumulator and last.
func BenchmarkSnapshotCodec(b *testing.B) {
	const rows = 62_500
	r := rng.New(25)
	s := &PeerSnapshot{ID: 2}
	for i := range rows {
		v := 0.15 + r.Float64()
		s.Docs = append(s.Docs, graph.NodeID(8*i+r.Intn(8)))
		s.Acc, s.Last = append(s.Acc, v), append(s.Last, v)
	}
	var buf bytes.Buffer
	var enc, dec time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		start := time.Now()
		if err := EncodeSnapshot(s, &buf); err != nil {
			b.Fatal(err)
		}
		encoded := time.Now()
		if _, err := DecodeSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
		enc, dec = enc+encoded.Sub(start), dec+time.Since(encoded)
	}
	perRow := float64(b.N) * rows
	b.ReportMetric(float64(buf.Len())/rows, "B/row")
	b.ReportMetric(float64(enc.Nanoseconds())/perRow, "encode-ns/row")
	b.ReportMetric(float64(dec.Nanoseconds())/perRow, "decode-ns/row")
}

// TestNackedFrameIsRequeuedWhole has a raw receiver nack the first
// frame of a real peer's initial push and accept everything after it.
// The sender must withdraw exactly that frame, adopt the epoch, and
// redeliver every update of it: what the receiver ends up accepting
// must carry all the delta mass the peer shipped.
func TestNackedFrameIsRequeuedWhole(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	adj := make([][]graph.NodeID, 9)
	docPeer := make([]p2p.PeerID, 9)
	for i := 1; i < 9; i++ {
		adj[0] = append(adj[0], graph.NodeID(i))
		docPeer[i] = 1
	}
	p, err := NewPeer(PeerConfig{ID: 0, Graph: graph.FromAdjacency(adj), DocPeer: docPeer, Docs: []graph.NodeID{0}})
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

	accepted := make(chan float64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		for nacked := false; ; {
			typ, payload, err := readFrame(conn)
			if err != nil || typ != frameBatchEpoch {
				return
			}
			_, _, seq, epoch, us, err := decodeBatchEpoch(payload)
			if err != nil {
				return
			}
			if !nacked {
				nacked = true
				writeFrame(conn, frameNackEpoch, encodeNackEpoch(nil, seq, epoch+9))
				continue
			}
			mass := 0.0
			for _, u := range us {
				mass += u.Delta
			}
			writeFrame(conn, frameCredit, encodeCredit(nil, seq))
			accepted <- mass
			return
		}
	}()

	p.Start()
	select {
	case folded := <-accepted:
		if shipped := p.Stats().DeltaShipped; shipped == 0 || math.Abs(shipped-folded) > 1e-12 {
			t.Fatalf("peer shipped delta mass %v, the receiver accepted %v after the nack", shipped, folded)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the nacked frame's updates never came back")
	}
	if got := p.epochOf(1); got != 9 {
		t.Fatalf("sender's epoch for the range = %d after the nack, want 9", got)
	}
	waitCounter(t, 5*time.Second, "the redelivered frame to be acknowledged", func() bool {
		return p.Registry().Snapshot().GaugeValue("wire_unacked_frames") == 0
	})
}

// TestDuplicatedControlFramesStillParse puts a transport that
// duplicates every Write under a gossip ping. A frame leaves in one
// Write, so the duplicate is a second whole frame the server answers
// twice — not a stray header in front of the payload that garbles the
// stream.
func TestDuplicatedControlFramesStillParse(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	ft := NewFaultTransport(nil, FaultConfig{Seed: 1, DupProb: 1})
	b, err := NewPeer(PeerConfig{ID: 1, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 0, 1, 1}, Docs: []graph.NodeID{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn, err := ft.Dial(0, 1, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, framePing, encodeGossip(0, []p2p.PeerID{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the ping and its duplicate each get a pong
		if typ, _, err := readFrame(conn); err != nil || typ != framePong {
			t.Fatalf("pong %d over a duplicating link: frame %q, %v", i+1, typ, err)
		}
	}
	if ft.Stats().Dups != 1 {
		t.Fatalf("transport duplicated %d writes, want the ping's one", ft.Stats().Dups)
	}
}

// cutThird is a Transport whose first connection to write a third time
// is reset instead: the write is lost, and the sender takes it again as
// the first frame of its next connection.
type cutThird struct {
	Transport
	fired atomic.Bool
}

func (tr *cutThird) Dial(from, to p2p.PeerID, addr string) (net.Conn, error) {
	conn, err := tr.Transport.Dial(from, to, addr)
	if err != nil {
		return nil, err
	}
	return &cutThirdConn{Conn: conn, tr: tr}, nil
}

type cutThirdConn struct {
	net.Conn
	tr     *cutThird
	writes int // a stream's connection is written by its sender alone
}

func (c *cutThirdConn) Write(b []byte) (int, error) {
	if c.writes++; c.writes == 3 && c.tr.fired.CompareAndSwap(false, true) {
		c.Conn.Close()
		return 0, errors.New("connection reset before the third write")
	}
	return c.Conn.Write(b)
}

// TestDuplicatedBatchFramesFoldOnce runs a cluster whose every batch
// frame is written twice, and one of whose connections is reset mid-
// stream, so the frame it cut goes out again as the first of a new
// connection, stating the whole stream, and the frames after it
// continue that. A frame's copy carries the seq's low byte alone: each
// must be rebuilt as a duplicate of the frame before it and dropped, so
// every duplicate shows in DupDropped, nothing folds twice, and the
// ranks are the centralized solver's.
func TestDuplicatedBatchFramesFoldOnce(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 46))
	ft := NewFaultTransport(nil, FaultConfig{Seed: 46, DupProb: 1})
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Epsilon: 1e-6, Seed: 3, Transport: &cutThird{Transport: ft}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 || res.Reconnects != 1 {
		t.Fatalf("retries %d, reconnects %d; want the one cut frame sent again on a new connection", res.Retries, res.Reconnects)
	}
	dups := ft.Stats().Dups
	if dups < 10 {
		t.Fatalf("%d duplicated writes, want every batch frame's", dups)
	}
	// A copy reaches its receiver right behind its frame, and Run ends a
	// probe period or more after the last fold.
	if res.DupDropped != dups {
		t.Fatalf("%d duplicates dropped of %d written", res.DupDropped, dups)
	}
	assertNoMassLost(t, res)
	assertRanksMatch(t, g, res.Ranks, 1e-3)
}

// TestReconnectSendsOldestUnackedFirst is the regression test for a
// lost frame: a sender whose frame 1 is out but unacknowledged — the
// receiver crashed with it unfolded in its inbox, and the connection
// with it — has fresh updates queued when it redials. The first frame
// on the new connection must be 1, and nothing fresh may follow it before it is
// acked: were a fresh frame 2 to be folded first, the receiver's dedup
// watermark would pass 1, and its cumulative ack would make the sender
// discard frame 1 unfolded.
func TestReconnectSendsOldestUnackedFirst(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p, err := NewPeer(PeerConfig{ID: 0, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 1, 1, 1}, Docs: []graph.NodeID{0}})
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

	st := stream{src: 0, dest: 1}
	s := p.newSender(st)
	// Transmitted on a connection that has died since.
	s.inflight = &frameRec{seq: 1, us: []p2p.Update{{Doc: 1, Delta: 0.5}}, attempts: 1}
	s.nextSeq = 2
	p.sendMu.Lock()
	p.senders[st] = s
	p.wg.Add(1)
	go s.loop()
	p.sendMu.Unlock()

	seqs, connCh := make(chan uint64, 2), make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		connCh <- conn
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		for i := 0; i < 2; i++ {
			typ, payload, err := readFrame(conn)
			if err != nil || typ != frameBatchEpoch {
				return
			}
			_, _, seq, _, _, err := decodeBatchEpoch(payload)
			if err != nil {
				return
			}
			seqs <- seq
		}
	}()
	next := func(want uint64) {
		t.Helper()
		select {
		case got := <-seqs:
			if got != want {
				t.Fatalf("frame %d on the new connection has seq %d, want the frame in flight first", want, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
	p.queueRemote(outboxTo(1, []p2p.Update{{Doc: 3, Delta: 0.5}}))
	p.wakeSenders() // the view change that sends the sender to redial
	next(1)
	select {
	case got := <-seqs:
		t.Fatalf("frame %d left before frame 1 was acked", got)
	case <-time.After(300 * time.Millisecond): // a second frame would arrive well within this
	}
	conn := <-connCh
	defer conn.Close()
	if err := writeFrame(conn, frameCredit, encodeCredit(nil, 1)); err != nil {
		t.Fatal(err)
	}
	next(2)
}

// TestKillKeepsSelfDirectedInboxItems is the regression test for the
// other way a crash lost updates for good: a self-directed batch (here
// the peer's own share of its initial push) still waiting in the inbox
// when the peer is killed has no sender holding a copy. The checkpoint
// must carry it, and the restored peer must fold it.
func TestKillKeepsSelfDirectedInboxItems(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	cfg := PeerConfig{ID: 0, Graph: graph.Cycle(4), DocPeer: make([]p2p.PeerID, 4), Docs: []graph.NodeID{0, 1, 2, 3}, Epsilon: 1e-10}
	p, err := NewPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.stop() // the crash; what follows is what Kill finds in the inbox
	self := p.ship(p.rk.InitialOut(), true)
	p.inbox <- inItem{from: 0, us: slices.Clone(self)}
	var blob bytes.Buffer
	if err := EncodeSnapshot(p.snapshot(), &blob); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sent != 4 || snap.Processed != 0 {
		t.Fatalf("checkpoint counts sent %d processed %d, want the 4 self-directed updates outstanding", snap.Sent, snap.Processed)
	}
	q, err := RestorePeer(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.SetPeers([]string{q.Addr()})
	q.Start()
	waitCounter(t, 10*time.Second, "the restored peer to fold what the crash left in its inbox", func() bool {
		sent, processed := q.Counters()
		return processed == sent
	})
	st := q.Stats()
	assertNoMassLost(t, ClusterResult{PeerStats: st})
	ranks := make([]float64, cfg.Graph.NumNodes())
	q.rk.RanksInto(ranks)
	assertRanksMatch(t, cfg.Graph, ranks, 1e-3)
}

// dyingConn reports one Write as delivered and, before returning from
// it, lets the test kill the connection: a frame that left just as the
// receiver crashed.
type dyingConn struct {
	net.Conn
	afterWrite func(net.Conn)
}

func (c *dyingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.afterWrite != nil {
		c.afterWrite(c.Conn)
	}
	return n, err
}

// dyingTransport arms the next dialed connection only. The test sets
// afterWrite before the sender's first dial.
type dyingTransport struct {
	afterWrite func(net.Conn)
}

func (tr *dyingTransport) Dial(_, _ p2p.PeerID, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	hook := tr.afterWrite
	tr.afterWrite = nil
	return &dyingConn{Conn: conn, afterWrite: hook}, nil
}

// TestFrameWrittenAsConnectionDiesIsRetransmitted: the write of frame
// 1 succeeds and the connection dies before the reply. The frame must
// go out again on a new connection, not stay in flight with nothing
// left to send it: that lost updates in about one run in fifty of
// TestOverloadMembershipLeaveUnderFirehose (DESIGN.md §13).
func TestFrameWrittenAsConnectionDiesIsRetransmitted(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	tr := &dyingTransport{afterWrite: func(conn net.Conn) { conn.Close() }}
	p, err := NewPeer(PeerConfig{ID: 0, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 1, 1, 1}, Docs: []graph.NodeID{0}, Transport: tr})
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

	again := make(chan uint64, 1)
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			typ, payload, err := readFrame(conn)
			if n > 0 && err == nil && typ == frameBatchEpoch {
				if _, _, seq, _, _, err := decodeBatchEpoch(payload); err == nil {
					again <- seq
					writeFrame(conn, frameCredit, encodeCredit(nil, seq))
				}
			}
			conn.Close()
		}
	}()
	p.queueRemote(outboxTo(1, []p2p.Update{{Doc: 1, Delta: 0.5}}))
	select {
	case seq := <-again:
		if seq != 1 {
			t.Fatalf("the new connection opened with frame %d, want the lost frame 1", seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame 1 was never retransmitted after its connection died under it")
	}
}

// TestWindowedCreditIsRefused: a credit payload of a layout before this
// one — the u64 ack followed by a u32 window, or the u64 ack alone — is
// a protocol violation on the ack path. The sender must drop the
// connection and open the next one with the same frame, not take the
// frame as acknowledged.
func TestWindowedCreditIsRefused(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p, err := NewPeer(PeerConfig{ID: 0, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 1, 1, 1}, Docs: []graph.NodeID{0}})
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

	seqs := make(chan uint64, 3)
	go func() {
		for n := 0; n < 3; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			typ, payload, err := readFrame(conn)
			if err != nil || typ != frameBatchEpoch {
				return
			}
			_, _, seq, _, _, err := decodeBatchEpoch(payload)
			if err != nil {
				return
			}
			seqs <- seq
			ack := encodeCredit(nil, seq)
			switch n {
			case 0:
				ack = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, seq), 1) // with the window
			case 1:
				ack = binary.LittleEndian.AppendUint64(nil, seq)
			}
			writeFrame(conn, frameCredit, ack)
		}
	}()
	p.queueRemote(outboxTo(1, []p2p.Update{{Doc: 1, Delta: 0.5}}))
	for n := 1; n <= 3; n++ {
		select {
		case seq := <-seqs:
			if seq != 1 {
				t.Fatalf("connection %d opened with frame %d, want frame 1", n, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame 1 never came on connection %d: an old credit was taken as its ack", n)
		}
	}
	waitCounter(t, 10*time.Second, "frame 1 to be acknowledged on its third attempt", func() bool {
		return p.Stats().Redeliveries == 1
	})
}

// TestRerouteDuringKillKeepsSelfDirectedUpdates is the regression test
// for updates lost between a sender and a checkpoint: a stale-epoch
// nack withdraws a frame and reroutes its updates, they turn out to be
// for documents this peer holds by now, and the peer is killed before
// the inbox takes them. Nothing else holds a copy, so the checkpoint
// must. (TestChaosPartitionSplitHeal lost one or two updates this way
// in about one run in twenty and never reached quiescence: a fenced
// peer is nacked by the majority and killed for its departure at the
// same moment.)
func TestRerouteDuringKillKeepsSelfDirectedUpdates(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p, err := NewPeer(PeerConfig{Graph: graph.Cycle(4), DocPeer: make([]p2p.PeerID, 4), Docs: []graph.NodeID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p.stop() // the kill, as far as the loops are concerned
	// A full inbox nobody drains anymore.
	for len(p.inbox) < cap(p.inbox) {
		p.inbox <- inItem{from: 0, us: []p2p.Update{{Doc: 1, Delta: 0.25}}}
	}
	p.reroute([]p2p.Update{{Doc: 2, Delta: 0.5}}, false) // the nack's reader got this far
	want := 0.25*float64(cap(p.inbox)) + 0.5
	got := 0.0
	for _, ob := range p.snapshot().Outbound {
		if ob.Src != 0 || ob.Dest != 0 {
			t.Fatalf("checkpoint has a stream %d->%d, want only updates pending for the peer itself", ob.Src, ob.Dest)
		}
		for _, u := range ob.Pending {
			got += u.Delta
		}
	}
	if got != want {
		t.Fatalf("checkpoint carries self-directed delta mass %v, want %v: the inbox items and the rerouted update", got, want)
	}
}

// TestEachAdmittedFrameIsAcked: three frames of one stream that reach a
// receiver's inbox before its loop turns are folded in one consume, and
// each gets its own credit frame, for 1, 2 and 3 in order, all written
// after the fold. A sender keeps one frame in flight and reads one reply
// for it, so there is nothing to coalesce; the three come from a raw
// connection, since the receiver does not trust its senders to behave.
func TestEachAdmittedFrameIsAcked(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	recv, err := NewPeer(PeerConfig{ID: 1, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 1, 1, 1}, Docs: []graph.NodeID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.DialTimeout("tcp", recv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// Hold the receiver's loop inside a control item until all three
	// frames sit in its inbox.
	entered, release, held := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before the deferred Close, which waits for the loop
	go func() { held <- recv.control(func() { close(entered); <-release }) }()
	<-entered
	for seq := uint64(1); seq <= 3; seq++ {
		us := []p2p.Update{{Doc: graph.NodeID(seq), Delta: 0.5}}
		if err := writeFrame(conn, frameBatchEpoch, encodeBatchEpoch(nil, 0, 1, seq, 0, us)); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, 10*time.Second, "three frames in the receiver's inbox", func() bool { return len(recv.inbox) == 3 })
	unblock()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		typ, payload, err := readFrame(conn)
		if err != nil || typ != frameCredit {
			t.Fatalf("answer %d is frame %q, err %v; want a credit frame", want, typ, err)
		}
		if seq, err := decodeCredit(payload); err != nil || seq != byte(want) {
			t.Fatalf("credit frame %d acks seq %d, err %v; want %d", want, seq, err, want)
		}
		// The fold of all three, and of the chain they set off, came first.
		if _, processed := recv.Counters(); processed < 3 {
			t.Fatalf("credit for %d written with %d updates folded, want all three frames' first", want, processed)
		}
	}
	// A control item queued now runs after the consume that wrote those
	// acks, so whatever else the consume wrote is on the connection ahead
	// of the close.
	if err := recv.control(func() {}); err != nil {
		t.Fatal(err)
	}
	recv.Close()
	if typ, _, err := readFrame(conn); err != io.EOF {
		t.Fatalf("a fourth answer, frame %q (err %v): three frames owe three acks", typ, err)
	}
}

// TestStaleAckIsNotTakenForTheNextFrame: a raw receiver acks frame 1
// twice, as it does when the link duplicates the frame. The second ack
// arrives while frame 2 is out. The sender must not take it for frame
// 2's reply: frame 2 stays owed, on the same connection, until the ack
// for 2.
func TestStaleAckIsNotTakenForTheNextFrame(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	p, err := NewPeer(PeerConfig{ID: 0, Graph: graph.Cycle(4), DocPeer: []p2p.PeerID{0, 1, 1, 1}, Docs: []graph.NodeID{0}})
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
	unacked := func() float64 { return p.Registry().Snapshot().GaugeValue("wire_unacked_frames") }

	p.queueRemote(outboxTo(1, []p2p.Update{{Doc: 1, Delta: 0.5}}))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	frame := func(want uint64) {
		t.Helper()
		typ, payload, err := readFrame(conn)
		if err != nil || typ != frameBatchEpoch {
			t.Fatalf("frame %q, err %v; want batch frame %d", typ, err, want)
		}
		if _, _, seq, _, _, err := decodeBatchEpoch(payload); err != nil || seq != want {
			t.Fatalf("batch frame seq %d, err %v; want %d", seq, err, want)
		}
	}
	frame(1)
	p.queueRemote(outboxTo(1, []p2p.Update{{Doc: 2, Delta: 0.5}})) // frame 2's update, queued behind frame 1
	for range 2 {
		if err := writeFrame(conn, frameCredit, encodeCredit(nil, 1)); err != nil {
			t.Fatal(err)
		}
	}
	frame(2)
	time.Sleep(200 * time.Millisecond) // the stale ack is read well within this
	if n := unacked(); n != 1 {
		t.Fatalf("%v frames owed after the second ack for 1, want frame 2", n)
	}
	if st := p.Stats(); st.Redeliveries != 0 || st.Retries != 0 || st.Reconnects != 0 {
		t.Fatalf("redeliveries %d, retries %d, reconnects %d: the stale ack must be skipped, not break the connection",
			st.Redeliveries, st.Retries, st.Reconnects)
	}
	if err := writeFrame(conn, frameCredit, encodeCredit(nil, 2)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, 5*time.Second, "the ack for 2 to finish frame 2", func() bool { return unacked() == 0 })
}

// outboxTo is an outbox, indexed by PeerID+1, holding us for dest only.
func outboxTo(dest p2p.PeerID, us []p2p.Update) [][]p2p.Update {
	out := make([][]p2p.Update, dest+2)
	out[dest+1] = us
	return out
}

// TestConsumeFoldsABurstOnce hands consume one burst, as the processing
// loop drains it: admitted frames from two streams that touch one
// document twice, a duplicate of a folded frame, a control operation
// and a frame stamped behind the receiver's epoch. The control op runs
// before the fold; the admitted frames fold in one fold that recomputes
// each row once; each admitted frame gets one credit, written after
// that fold; the duplicate is re-acked, and the stale frame is nacked
// and never folded.
func TestConsumeFoldsABurstOnce(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	// Peer 1 holds 1, 2 and 3, whose out-links all lead to peer 0's
	// documents: no fold sets off a self-directed one.
	g := graph.FromAdjacency([][]graph.NodeID{{1}, {0}, {0}, {4}, {1}})
	trace := telemetry.NewTrace(64)
	recv, err := NewPeer(PeerConfig{ID: 1, Graph: g, DocPeer: []p2p.PeerID{0, 1, 1, 1, 0}, Docs: []graph.NodeID{1, 2, 3},
		Epochs: []uint64{0, 2}, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	folds := func() (ev []telemetry.Event) {
		for _, e := range trace.Recent(0) {
			if e.Type == telemetry.EvFold {
				ev = append(ev, e)
			}
		}
		return ev
	}

	// One pipe per inbound stream; its reader notes each answer with the
	// folds recorded by the time it was read.
	type answer struct {
		typ   byte
		seq   uint64
		folds int
	}
	answers := make([][]answer, 3)
	cws := make([]*connWriter, 3)
	var readers sync.WaitGroup
	for s := range cws {
		local, remote := net.Pipe()
		defer remote.Close()
		cws[s] = &connWriter{conn: local}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				typ, payload, err := readFrame(remote)
				if err != nil {
					return
				}
				a := answer{typ: typ, folds: len(folds())}
				switch typ {
				case frameCredit:
					low, err := decodeCredit(payload)
					if err != nil {
						t.Error(err)
					}
					a.seq = uint64(low)
				case frameNackEpoch:
					if a.seq, _, err = decodeNackEpoch(payload); err != nil {
						t.Error(err)
					}
				}
				answers[s] = append(answers[s], a)
			}
		}()
	}
	frame := func(s int, seq, epoch uint64, us ...p2p.Update) inItem {
		return inItem{from: p2p.PeerID(s * 2), origDest: 1, seq: seq, epoch: epoch, us: us, cw: cws[s]}
	}

	// Stream 0's frame 1 folds first, on its own.
	if err := recv.control(func() { recv.consume([]inItem{frame(0, 1, 2, p2p.Update{Doc: 1, Delta: 0.5})}) }); err != nil {
		t.Fatal(err)
	}
	recomputed := recv.rk.Recomputed()
	opFolds := -1
	burst := []inItem{
		frame(0, 2, 2, p2p.Update{Doc: 1, Delta: 0.25}, p2p.Update{Doc: 2, Delta: 0.25}),
		frame(0, 1, 2, p2p.Update{Doc: 1, Delta: 0.5}), // a duplicate of the folded frame
		{op: func() { opFolds = len(folds()) }},
		frame(1, 1, 2, p2p.Update{Doc: 1, Delta: 0.125}, p2p.Update{Doc: 3, Delta: 0.5}),
		frame(2, 1, 1, p2p.Update{Doc: 3, Delta: 4}), // stamped behind epoch 2
	}
	if err := recv.control(func() { recv.consume(burst) }); err != nil {
		t.Fatal(err)
	}
	for _, cw := range cws {
		cw.conn.Close()
	}
	readers.Wait()

	if opFolds != 1 {
		t.Fatalf("the control op ran with %d folds recorded, want 1: before the burst's fold", opFolds)
	}
	ev := folds()
	if len(ev) != 2 || ev[1].Aux != 4 || ev[1].Value != 1.125 {
		t.Fatalf("fold events %+v, want the first frame's and one fold of the burst's 4 admitted updates, mass 1.125", ev)
	}
	if got := recv.rk.Recomputed() - recomputed; got != 3 {
		t.Fatalf("the burst recomputed %d rows, want 3: document 1, hit by two frames, once", got)
	}
	if docs, acc, _ := recv.rk.Rows(); !slices.Equal(docs, []graph.NodeID{1, 2, 3}) || !slices.Equal(acc, []float64{0.875, 0.25, 0.5}) {
		t.Fatalf("rows %v hold %v, want 0.875, 0.25 and 0.5: the duplicate and the stale frame unfolded", docs, acc)
	}
	// Answers written before the fold (the re-ack, the nack) may be read
	// after it, so only the burst's credits are held to a fold count.
	want := [][]answer{
		{{frameCredit, 1, 0}, {frameCredit, 1, 0}, {frameCredit, 2, 2}}, // the first fold's credit, the re-ack, the burst's credit
		{{frameCredit, 1, 2}},
		{{frameNackEpoch, 1, 0}},
	}
	for s := range want {
		got := slices.Clone(answers[s])
		for i := range got {
			if i < len(want[s]) && want[s][i].folds == 0 {
				got[i].folds = 0
			}
		}
		if !slices.Equal(got, want[s]) {
			t.Fatalf("stream %d answered %+v, want %+v (type, seq, folds recorded when read)", s, answers[s], want[s])
		}
	}
}
