package wire

import (
	"bytes"
	"cmp"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

// modelRanker is the reference the ranker is checked against: the
// rows and the routing table as two plain maps, one fold at a time.
type modelRanker struct {
	id           p2p.PeerID
	g            *graph.Graph
	damping, eps float64
	owner        map[graph.NodeID]p2p.PeerID
	row          map[graph.NodeID]*[3]float64 // rank, acc, last
}

// dest is where an update for d goes: a held row wins over the table.
func (m *modelRanker) dest(d graph.NodeID) p2p.PeerID {
	if m.row[d] != nil {
		return m.id
	}
	if o, ok := m.owner[d]; ok {
		return o
	}
	return p2p.NoPeer
}

func (m *modelRanker) fold(batch []p2p.Update) (out map[p2p.PeerID][]p2p.Update, fwd []p2p.Update) {
	out = make(map[p2p.PeerID][]p2p.Update)
	before := make(map[graph.NodeID]float64)
	for _, u := range batch {
		r := m.row[u.Doc]
		if r == nil {
			fwd = append(fwd, u)
			continue
		}
		if _, seen := before[u.Doc]; !seen {
			before[u.Doc] = r[0]
		}
		r[1] += u.Delta
	}
	for d, old := range before {
		r := m.row[d]
		r[0] = (1 - m.damping) + r[1]
		if math.Abs(r[0]-old)/cmp.Or(math.Abs(r[0]), 1) <= m.eps {
			continue
		}
		links := m.g.OutLinks(d)
		if share := m.damping * (r[0] - r[2]) / float64(len(links)); len(links) > 0 && share != 0 {
			for _, t := range links {
				out[m.dest(t)] = append(out[m.dest(t)], p2p.Update{Doc: t, Delta: share})
			}
		}
		r[2] = r[0]
	}
	return out, fwd
}

func sortedUpdates(us []p2p.Update) []p2p.Update {
	us = slices.Clone(us)
	slices.SortFunc(us, func(a, b p2p.Update) int {
		return cmp.Or(cmp.Compare(a.Doc, b.Doc), cmp.Compare(a.Delta, b.Delta))
	})
	return us
}

// sameOut compares an outbox with the model's per-destination batches
// as multisets.
func sameOut(t *testing.T, step int, got outbox, want map[p2p.PeerID][]p2p.Update) {
	t.Helper()
	for slot, us := range got {
		dest := p2p.PeerID(slot - 1)
		if !slices.Equal(sortedUpdates(us), sortedUpdates(want[dest])) {
			t.Fatalf("step %d: updates for peer %d = %v, model has %v", step, dest, sortedUpdates(us), sortedUpdates(want[dest]))
		}
		delete(want, dest)
	}
	for dest, us := range want {
		if len(us) > 0 {
			t.Fatalf("step %d: no outbox slot for peer %d, model has %v", step, dest, us)
		}
	}
}

// TestRankerMatchesMapModel drives the ranker and the map model
// through the same random folds (with their self-directed chains),
// adoptions, sheds, ownership pushes, reroutes and forwards, and
// requires identical rows and identical per-destination update
// multisets after every step — including for owners past the end of
// the table the ranker was built with, and for documents outside the
// graph.
func TestRankerMatchesMapModel(t *testing.T) {
	const docs, self = 96, p2p.PeerID(1)
	damping := 0.85 // a variable: 1-damping must round at run time, as the ranker's does
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, seed))
		cfg := PeerConfig{ID: self, Graph: g, Damping: damping, Epsilon: 1e-3, DocPeer: make([]p2p.PeerID, docs)}
		m := &modelRanker{id: self, g: g, damping: damping, eps: 1e-3,
			owner: make(map[graph.NodeID]p2p.PeerID), row: make(map[graph.NodeID]*[3]float64)}
		for d := range cfg.DocPeer {
			cfg.DocPeer[d] = p2p.PeerID(r.Intn(4))
			m.owner[graph.NodeID(d)] = cfg.DocPeer[d]
			if cfg.DocPeer[d] == self {
				cfg.Docs = append(cfg.Docs, graph.NodeID(d))
				m.row[graph.NodeID(d)] = &[3]float64{1 - damping, 0, 0}
			}
		}
		rk := newRanker(cfg, telemetry.NewRegistry().Gauge("mass"))
		sameOut(t, 0, rk.initialOut(), func() map[p2p.PeerID][]p2p.Update {
			// The initial push is a fold of nothing that collects every row.
			out := make(map[p2p.PeerID][]p2p.Update)
			for d, row := range m.row {
				for _, t := range g.OutLinks(d) {
					out[m.dest(t)] = append(out[m.dest(t)], p2p.Update{Doc: t, Delta: damping * row[0] / float64(len(g.OutLinks(d)))})
				}
				row[2] = row[0]
			}
			return out
		}())
		held := func() (ds []graph.NodeID) {
			for d := range m.row {
				ds = append(ds, d)
			}
			slices.Sort(ds)
			return ds
		}
		for step := 1; step <= 300; step++ {
			switch op := r.Intn(10); {
			case op < 6: // fold a batch, then the chain of self-directed consequences
				batch := make([]p2p.Update, 1+r.Intn(40))
				for i := range batch {
					batch[i] = p2p.Update{Doc: graph.NodeID(r.Intn(docs+4) - 2), Delta: r.Float64() - 0.3}
				}
				for len(batch) > 0 {
					out, fwd, folded := rk.fold(batch)
					wantOut, wantFwd := m.fold(batch)
					want := 0.0
					for _, u := range batch {
						want += u.Delta
					}
					for _, u := range wantFwd {
						want -= u.Delta
					}
					if !slices.Equal(fwd, wantFwd) || math.Abs(folded-want) > 1e-9 {
						t.Fatalf("seed %d step %d: fold refused %v and folded %v, model %v and %v", seed, step, fwd, folded, wantFwd, want)
					}
					sameOut(t, step, out, maps(wantOut))
					// Forward what the fold refused, by the current table.
					fout, dropped := rk.forwardOut(fwd)
					wantF, wantDropped := make(map[p2p.PeerID][]p2p.Update), 0
					for _, u := range wantFwd {
						if o := m.dest(u.Doc); o == p2p.NoPeer || (o == self && m.row[u.Doc] == nil) {
							wantDropped++
						} else {
							wantF[o] = append(wantF[o], u)
						}
					}
					if dropped != wantDropped {
						t.Fatalf("seed %d step %d: forward dropped %d, model %d", seed, step, dropped, wantDropped)
					}
					sameOut(t, step, fout, wantF)
					batch = slices.Clone(out[self+1])
				}
			case op < 7: // adopt rows, some of them already held
				var ds []graph.NodeID
				var rank, acc, last []float64
				for i := r.Intn(6); i >= 0; i-- {
					d := graph.NodeID(r.Intn(docs))
					if slices.Contains(ds, d) {
						continue
					}
					ds = append(ds, d)
					rank, acc, last = append(rank, r.Float64()), append(acc, r.Float64()), append(last, r.Float64())
					if m.row[d] == nil {
						m.row[d] = &[3]float64{rank[len(rank)-1], acc[len(acc)-1], last[len(last)-1]}
					}
				}
				rk.adopt(ds, rank, acc, last)
			case op < 8: // shed held rows to a peer the table may never have seen
				hs := held()
				if len(hs) == 0 {
					continue
				}
				r.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
				hs = hs[:1+r.Intn(min(len(hs), 5))]
				to := p2p.PeerID(r.Intn(7))
				rank, acc, last, err := rk.shed(hs, to)
				if err != nil {
					t.Fatalf("seed %d step %d: shed: %v", seed, step, err)
				}
				for i, d := range hs {
					if row := m.row[d]; rank[i] != row[0] || acc[i] != row[1] || last[i] != row[2] {
						t.Fatalf("seed %d step %d: shed doc %d as (%v %v %v), model row %v", seed, step, d, rank[i], acc[i], last[i], *row)
					}
					delete(m.row, d)
					m.owner[d] = to
				}
				if _, _, _, err := rk.shed([]graph.NodeID{hs[0]}, to); err == nil {
					t.Fatalf("seed %d step %d: shed a row twice", seed, step)
				}
			case op < 9: // ownership push: held rows keep their rows
				ds := make([]graph.NodeID, 1+r.Intn(8))
				to := p2p.PeerID(r.Intn(7))
				for i := range ds {
					ds[i] = graph.NodeID(r.Intn(docs))
					if m.row[ds[i]] == nil {
						m.owner[ds[i]] = to
					}
				}
				rk.setOwner(ds, to)
			default: // a departed slot's range moves on
				from, to := p2p.PeerID(r.Intn(7)), p2p.PeerID(r.Intn(7))
				for d, o := range m.owner {
					if o == from && m.row[d] == nil {
						m.owner[d] = to
					}
				}
				rk.rerouteOwner(from, to)
			}
			table, mass := rk.ownerTable(), 0.0
			for d := graph.NodeID(0); d < docs; d++ {
				if table[d] != m.dest(d) {
					t.Fatalf("seed %d step %d: doc %d routed to %d, model %d", seed, step, d, table[d], m.dest(d))
				}
			}
			if len(rk.docs) != len(m.row) {
				t.Fatalf("seed %d step %d: %d rows, model %d", seed, step, len(rk.docs), len(m.row))
			}
			for i, d := range rk.docs {
				if row := m.row[d]; row == nil || rk.rank[i] != row[0] || rk.acc[i] != row[1] || rk.last[i] != row[2] {
					t.Fatalf("seed %d step %d: row of doc %d = (%v %v %v), model %v", seed, step, d, rk.rank[i], rk.acc[i], rk.last[i], row)
				}
				mass += rk.rank[i]
			}
			if got := rk.mass.Load(); math.Abs(got-mass) > 1e-9 {
				t.Fatalf("seed %d step %d: mass gauge %v, rows sum to %v", seed, step, got, mass)
			}
		}
	}
}

// maps drops the model's empty batches, which the outbox cannot tell
// from absent ones.
func maps(m map[p2p.PeerID][]p2p.Update) map[p2p.PeerID][]p2p.Update {
	for k, v := range m {
		if len(v) == 0 {
			delete(m, k)
		}
	}
	return m
}

// foldFixture is a ranker holding an eighth of a power-law graph, as a
// peer of an 8-peer cluster does, and a batch that touches its rows the
// way a round of inbound frames does.
func foldFixture(tb testing.TB, docs, batch int) (*ranker, []p2p.Update) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 7))
	cfg := PeerConfig{ID: 3, Graph: g, Damping: 0.85, Epsilon: 1e-3, DocPeer: make([]p2p.PeerID, docs)}
	for d := range cfg.DocPeer {
		if cfg.DocPeer[d] = p2p.PeerID(d % 8); cfg.DocPeer[d] == 3 {
			cfg.Docs = append(cfg.Docs, graph.NodeID(d))
		}
	}
	r := rng.New(11)
	us := make([]p2p.Update, batch)
	for i := range us {
		us[i] = p2p.Update{Doc: cfg.Docs[r.Intn(len(cfg.Docs))], Delta: 0.01}
	}
	return newRanker(cfg, telemetry.NewRegistry().Gauge("mass")), us
}

func TestRankerWarmFoldAllocatesNothing(t *testing.T) {
	rk, us := foldFixture(t, 20000, 4096)
	rk.fold(us)
	if allocs := testing.AllocsPerRun(20, func() { rk.fold(us) }); allocs != 0 {
		t.Fatalf("warm fold allocates %v times, want 0", allocs)
	}
}

// BenchmarkRankerFold is the receiver-side cost of one update: routed
// to its row, accumulated, and its document's consequences collected
// per destination.
func BenchmarkRankerFold(b *testing.B) {
	rk, us := foldFixture(b, 100000, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(us) {
		rk.fold(us)
	}
}

func TestBatchEpochCodecAllocations(t *testing.T) {
	us := make([]p2p.Update, 4096)
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		buf = appendBatchEpochFrame(buf[:0], 1, 2, 3, 4, us)
		if _, _, _, _, got, err := decodeBatchEpoch(buf[frameHeader:]); err != nil || len(got) != len(us) {
			t.Fatalf("round trip: %d updates, %v", len(got), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("encode+decode of a %d-update frame allocates %v times, want at most 1 (the decoded updates)", len(us), allocs)
	}
}

// BenchmarkBatchEpochCodec is the wire cost of one update: rendered
// into the sender's frame buffer and parsed back out of the reader's.
func BenchmarkBatchEpochCodec(b *testing.B) {
	us := make([]p2p.Update, 4096)
	for i := range us {
		us[i] = p2p.Update{Doc: graph.NodeID(i * 3), Delta: float64(i)}
	}
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(12)
	for i := 0; i < b.N; i += len(us) {
		buf = appendBatchEpochFrame(buf[:0], 1, 2, uint64(i), 4, us)
		if _, _, _, _, _, err := decodeBatchEpoch(buf[frameHeader:]); err != nil {
			b.Fatal(err)
		}
	}
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
			writeFrame(conn, frameCredit, encodeCredit(nil, seq, 32))
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
		s := p.sender(stream{src: 0, dest: 1})
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.unacked) == 0
	})
}

// TestDuplicatedControlFramesStillParse puts a transport that
// duplicates every Write under a view exchange and a gossip ping. A
// frame leaves in one Write, so the duplicate is a second whole frame
// the server answers twice — not a stray header in front of the
// payload that garbles the stream.
func TestDuplicatedControlFramesStillParse(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(4)
	docPeer := []p2p.PeerID{0, 0, 1, 1}
	ft := NewFaultTransport(nil, FaultConfig{Seed: 1, DupProb: 1})
	a, err := NewPeer(PeerConfig{ID: 0, Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{0, 1}, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewPeer(PeerConfig{ID: 1, Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{2, 3}, Epochs: []uint64{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers([]string{a.Addr(), b.Addr()})

	if err := a.ExchangeView(1); err != nil {
		t.Fatalf("view exchange over a duplicating link: %v", err)
	}
	if got := a.epochOf(1); got != 4 {
		t.Fatalf("epoch for slot 1 after the exchange = %d, want b's 4", got)
	}

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
	if ft.Stats().Dups < 2 {
		t.Fatalf("transport duplicated %d writes, want both", ft.Stats().Dups)
	}
}

// TestReconnectSendsOldestUnackedFirst is the regression test for a
// lost frame: a sender whose frames 1 and 2 are out but unacknowledged
// — the receiver crashed with them unfolded in its inbox — has fresh
// updates queued when it finds its connection dead. Whatever frame its
// cursor pointed at before the reconnect, the first frame on the new
// connection must be 1: were the fresh frame 3 to arrive first, the
// receiver would fold it, advance its dedup watermark past 1 and 2,
// and its cumulative ack would make the sender discard them unfolded.
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
	s.unacked = []*frameRec{
		{seq: 1, us: []p2p.Update{{Doc: 1, Delta: 0.5}}, attempts: 1},
		{seq: 2, us: []p2p.Update{{Doc: 2, Delta: 0.5}}, attempts: 1},
	}
	s.nextSeq, s.sendSeq = 3, 3 // both transmitted; the connection died since
	p.sendMu.Lock()
	p.senders[st] = s
	p.wg.Add(1)
	go s.loop()
	p.sendMu.Unlock()

	seqs := make(chan uint64, 3)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		for i := 0; i < 3; i++ {
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
	p.queueRemote(1, []p2p.Update{{Doc: 3, Delta: 0.5}})
	for want := uint64(1); want <= 3; want++ {
		select {
		case got := <-seqs:
			if got != want {
				t.Fatalf("frame %d on the new connection has seq %d, want frames in order from the oldest unacknowledged", want, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
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
	self := p.ship(p.rk.initialOut(), true)
	p.bulk <- inItem{from: 0, us: slices.Clone(self)}
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
	_, ranks := q.rk.snapshotRanks()
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
// afterWrite before it queues the update that makes the sender dial.
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

// TestFrameWrittenAsConnectionDiesIsRetransmitted is the regression
// test for a frame lost to a race in the sender loop: the write of
// frame 1 succeeds, the connection dies, and the ack reader notices —
// rewinding the send cursor to 1 — before the loop gets to advance the
// cursor past the frame it just wrote. The loop then moved the cursor
// to 2 on a connection that no longer existed: frame 1 stayed
// unacknowledged with nothing pointing at it and nothing left to wake
// the loop, so its updates were never folded anywhere (about one run in
// fifty of TestOverloadMembershipLeaveUnderFirehose never reached
// quiescence). The frame must go out again on a new connection.
func TestFrameWrittenAsConnectionDiesIsRetransmitted(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	tr := &dyingTransport{}
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

	s := p.sender(stream{src: 0, dest: 1})
	tr.afterWrite = func(conn net.Conn) {
		conn.Close() // the ack reader fails, closes the connection and rewinds
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			s.mu.Lock()
			gone := s.conn == nil
			s.mu.Unlock()
			if gone {
				return // only now does the loop learn its write "succeeded"
			}
		}
	}

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
					writeFrame(conn, frameCredit, encodeCredit(nil, seq, 32))
				}
			}
			conn.Close()
		}
	}()
	p.queueRemote(1, []p2p.Update{{Doc: 1, Delta: 0.5}})
	select {
	case seq := <-again:
		if seq != 1 {
			t.Fatalf("the new connection opened with frame %d, want the lost frame 1", seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame 1 was never retransmitted after its connection died under it")
	}
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
	p, err := NewPeer(PeerConfig{Graph: graph.Cycle(4), DocPeer: make([]p2p.PeerID, 4), Docs: []graph.NodeID{0, 1, 2, 3}, InboxCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.stop()                                                           // the kill, as far as the loops are concerned
	p.bulk <- inItem{from: 0, us: []p2p.Update{{Doc: 1, Delta: 0.25}}} // a full inbox nobody drains anymore
	p.reroute([]p2p.Update{{Doc: 2, Delta: 0.5}}, false)               // the nack's reader got this far
	got := 0.0
	for _, ob := range p.snapshot().Outbound {
		if ob.Src != 0 || ob.Dest != 0 {
			t.Fatalf("checkpoint has a stream %d->%d, want only updates pending for the peer itself", ob.Src, ob.Dest)
		}
		for _, u := range ob.Pending {
			got += u.Delta
		}
	}
	if got != 0.75 {
		t.Fatalf("checkpoint carries self-directed delta mass %v, want 0.75: the inbox item and the rerouted update", got)
	}
}
