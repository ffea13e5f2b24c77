package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// senderState is what a primed sender must carry over from an
// OutboundState, whoever installs it.
type senderState struct {
	nextSeq uint64
	unacked string // seq@epoch:updates of the frame in flight
}

func senderStates(p *Peer) map[stream]senderState {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	out := make(map[stream]senderState)
	for st, s := range p.senders {
		s.mu.Lock()
		ss := senderState{nextSeq: s.nextSeq}
		if fr := s.inflight; fr != nil {
			ss.unacked = fmt.Sprintf("%d@%d:%v ", fr.seq, fr.epoch, fr.us)
		}
		s.mu.Unlock()
		out[st] = ss
	}
	return out
}

func epochsOf(p *Peer) []uint64 {
	var es []uint64
	for _, s := range p.view() {
		es = append(es, s.Epoch)
	}
	return es
}

// TestRestoreAndAdoptInstallTheSameState is the differential test for
// the single installer: one snapshot goes into a fresh peer through
// RestorePeer (the owner restarting) and into an empty peer through
// Adopt (its ring successor taking over). Both must end with the same
// senders for every stream that has frames to retransmit, the same
// dedup and rejected tables and the same epoch vector. What may differ
// is what the snapshot's owner owns: its counters are restored, its
// pending updates go back into its retry queue behind a sender of their
// own, while the successor handles them as a received batch.
func TestRestoreAndAdoptInstallTheSameState(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	// Five slots, two documents each. Slot 0 owns the snapshot, slot 3
	// is its successor, slot 4 departed earlier and left slot 0 a stream.
	g := graph.Cycle(10)
	docPeer := make([]p2p.PeerID, 10)
	for d := range docPeer {
		docPeer[d] = p2p.PeerID(d / 2)
	}
	docs, acc, last := []graph.NodeID{0, 1}, []float64{0.25, 0.55}, make([]float64, 2)
	p2p.UniformRanksInto(last, 0.85, docs, acc) // all of the rank pushed
	snap := &PeerSnapshot{
		ID:   0,
		Docs: docs, Acc: acc, Last: last,
		LastSeq: []SeqEntry{{Src: 1, Dest: 0, Seq: 12}, {Src: 2, Dest: 0, Seq: 4}, {Src: 2, Dest: 4, Seq: 9}},
		Rejected: []SeqEntry{
			{Src: 1, Dest: 0, Seq: 9}, // lastSeq moved past it
			{Src: 2, Dest: 0, Seq: 6}, // ahead of lastSeq
		},
		Outbound: []OutboundState{
			{ // own stream: a frame in flight, updates parked behind it
				Src: 0, Dest: 1, NextSeq: 6,
				Unacked: []UnackedFrame{{Seq: 5, Updates: []p2p.Update{{Doc: 2, Delta: 0.5}}}},
				Pending: []p2p.Update{{Doc: 2, Delta: 0.125}, {Doc: 3, Delta: -0.5}},
			},
			{ // stream adopted from departed slot 4
				Src: 4, Dest: 2, NextSeq: 10,
				Unacked: []UnackedFrame{{Seq: 9, Updates: []p2p.Update{{Doc: 4, Delta: 1}}}},
			},
			// own stream with nothing in flight
			{Src: 0, Dest: 2, NextSeq: 4, Pending: []p2p.Update{{Doc: 5, Delta: 0.25}}},
			// self-directed batch, too small to push anything onward
			{Src: 0, Dest: 0, NextSeq: 1, Pending: []p2p.Update{{Doc: 1, Delta: 1e-9}}},
		},
		Epochs:    []uint64{2, 0, 5, 1},
		PeerStats: PeerStats{Sent: 40, Processed: 33, Retries: 5, DeltaShipped: 2.5, DeltaFolded: 2.25},
	}
	cfg := PeerConfig{Graph: g, DocPeer: docPeer, Epochs: []uint64{0, 3, 1, 0, 7}}
	wantEpochs := []uint64{2, 3, 5, 1, 7} // each side ahead on different slots

	own := cfg
	own.ID, own.Docs = 0, snap.Docs
	restored, err := RestorePeer(own, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	succ := cfg
	succ.ID = 3
	adopter, err := NewPeer(succ)
	if err != nil {
		t.Fatal(err)
	}
	defer adopter.Close()
	if err := adopter.Adopt(snap); err != nil {
		t.Fatal(err)
	}

	rs, as := senderStates(restored), senderStates(adopter)
	want := map[stream]senderState{
		{src: 0, dest: 1}: {nextSeq: 6, unacked: "5@3:[{2 0.5}] "},
		{src: 4, dest: 2}: {nextSeq: 10, unacked: "9@5:[{4 1}] "},
	}
	for st, w := range want {
		if rs[st] != w {
			t.Errorf("restored sender %v = %+v, want %+v", st, rs[st], w)
		}
		if as[st] != w {
			t.Errorf("adopted sender %v = %+v, want %+v", st, as[st], w)
		}
	}
	if !reflect.DeepEqual(restored.lastSeq, adopter.lastSeq) || len(restored.lastSeq) != len(snap.LastSeq) {
		t.Errorf("dedup tables differ: restored %v, adopted %v", restored.lastSeq, adopter.lastSeq)
	}
	if !reflect.DeepEqual(restored.rejected, adopter.rejected) || len(restored.rejected) != 2 {
		t.Errorf("rejected tables differ: restored %v, adopted %v", restored.rejected, adopter.rejected)
	}
	if got := epochsOf(restored); !slices.Equal(got, wantEpochs) {
		t.Errorf("restored epochs %v, want %v", got, wantEpochs)
	}
	if got := epochsOf(adopter); !slices.Equal(got, wantEpochs) {
		t.Errorf("adopted epochs %v, want %v", got, wantEpochs)
	}

	// The documented differences. The owner keeps framing on its own
	// streams, so the idle one keeps its sequence cursor and the parked
	// updates wait in its retry queue; the successor will never frame on
	// a stream it adopted, and folded or forwarded the updates already.
	idle := stream{src: 0, dest: 2}
	if w := (senderState{nextSeq: 4}); rs[idle] != w {
		t.Errorf("restored idle sender = %+v, want %+v", rs[idle], w)
	}
	if _, ok := as[idle]; ok {
		t.Error("successor started a sender for an adopted stream with nothing to retransmit")
	}
	restored.rqMu.Lock()
	q1, q2 := restored.rq.Queued(1), restored.rq.Queued(2)
	restored.rqMu.Unlock()
	if q1 != 2 || q2 != 1 {
		t.Errorf("restored retry queue holds %d and %d updates for slots 1 and 2, want 2 and 1", q1, q2)
	}
	if st := restored.Stats(); st.Retries != 5 || st.DeltaShipped != 2.5 || st.Sent != 40 {
		t.Errorf("restored peer lost its counters: %+v", st)
	}
	if st := adopter.Stats(); st.Retries != 0 || st.DeltaShipped != 0 || st.Forwarded != 3 {
		t.Errorf("successor counters %+v: want none inherited and the 3 parked updates forwarded", st)
	}
}

// TestStatFieldsCoverPeerStats: every numeric field of PeerStats is in
// statFields exactly once, so a counter added later cannot be dropped
// from the checkpoint, the restore or the cluster sum without this
// failing; then one value per field goes through each of them.
func TestStatFieldsCoverPeerStats(t *testing.T) {
	var st PeerStats
	for i, sf := range statFields {
		if (sf.u == nil) == (sf.f == nil) {
			t.Fatalf("statFields[%d] (%s): exactly one accessor must be set", i, sf.metric)
		}
		if sf.f != nil {
			*sf.f(&st) = float64(i) + 1.5
		} else {
			*sf.u(&st) = uint64(i) + 1
		}
	}
	v := reflect.ValueOf(st)
	if v.NumField() != len(statFields) {
		t.Fatalf("PeerStats has %d fields, statFields lists %d", v.NumField(), len(statFields))
	}
	seen := make(map[string]string)
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if k := f.Kind(); k != reflect.Uint64 && k != reflect.Float64 {
			t.Fatalf("PeerStats.%s is a %v; statFields handles uint64 and float64", name, k)
		}
		if f.IsZero() {
			t.Errorf("PeerStats.%s is not in statFields", name)
		}
		val := fmt.Sprint(f.Interface())
		if other, dup := seen[val]; dup {
			t.Errorf("PeerStats.%s and .%s got the same value: a field is listed twice", name, other)
		}
		seen[val] = name
	}

	t.Run("checkpoint", func(t *testing.T) {
		var buf bytes.Buffer
		if err := EncodeSnapshot(&PeerSnapshot{ID: 2, PeerStats: st}, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.PeerStats != st {
			t.Fatalf("decoded %+v, want %+v", got.PeerStats, st)
		}
	})
	t.Run("restore", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		m := newPeerMetrics(reg)
		registered := reg.Snapshot()
		m.restore(st)
		if got := m.stats(); got != st {
			t.Fatalf("stats after restore %+v, want %+v", got, st)
		}
		after := reg.Snapshot()
		if len(after.Counters) != len(registered.Counters) || len(after.Floats) != len(registered.Floats) {
			t.Fatal("statFields names an instrument newPeerMetrics does not register")
		}
	})
	t.Run("sum", func(t *testing.T) {
		if got := addStats(PeerStats{}, st); got != st {
			t.Fatalf("0 + st = %+v, want %+v", got, st)
		}
		twice := addStats(st, st)
		for _, sf := range statFields {
			if sf.f != nil && *sf.f(&twice) != 2**sf.f(&st) || sf.u != nil && *sf.u(&twice) != 2**sf.u(&st) {
				t.Errorf("%s not doubled by st + st", sf.metric)
			}
		}
	})
}

// chainSlots is a 4-slot table with a two-hop forwarding chain: slot 0
// departed into slot 1, which departed into live slot 2.
func chainSlots() []slot {
	return []slot{
		{addr: "127.0.0.1:7000", left: true, forward: 1, epoch: 3},
		{addr: "127.0.0.1:7001", left: true, forward: 2, epoch: 2},
		{addr: "127.0.0.1:7002", forward: p2p.NoPeer, epoch: 5},
		{addr: "127.0.0.1:7003", forward: p2p.NoPeer},
	}
}

// TestUnsortedCheckpointFrameIsRetransmitted restores a checkpoint whose
// unacknowledged frame is in the order an older writer queued it —
// documents going backwards, one of them twice. The codec's gaps are
// unsigned, so the installer must order the frame before the sender
// meets it; the destination then folds every update of it, once.
func TestUnsortedCheckpointFrameIsRetransmitted(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.FromAdjacency(make([][]graph.NodeID, 10)) // no links: nothing else is ever shipped
	docPeer := []p2p.PeerID{0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	frame := []p2p.Update{{Doc: 7, Delta: 0.5}, {Doc: 3, Delta: 0.1}, {Doc: 9, Delta: -0.25}, {Doc: 3, Delta: 1e-300}, {Doc: 2, Delta: 2}}
	docs, folded, last := []graph.NodeID{0, 1}, []float64{0, 0}, make([]float64, 2)
	p2p.UniformRanksInto(last, 0.85, docs, folded) // all of the rank pushed
	var file bytes.Buffer
	if err := EncodeSnapshot(&PeerSnapshot{
		ID: 0, Docs: docs, Acc: folded, Last: last,
		Outbound:  []OutboundState{{Src: 0, Dest: 1, NextSeq: 6, Unacked: []UnackedFrame{{Seq: 5, Updates: slices.Clone(frame)}}}},
		PeerStats: PeerStats{Sent: uint64(len(frame))},
	}, &file); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(&file)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Outbound[0].Unacked[0].Updates, frame) {
		t.Fatalf("the checkpoint reordered the frame: %v", snap.Outbound[0].Unacked[0].Updates)
	}
	restored, err := RestorePeer(PeerConfig{ID: 0, Graph: g, DocPeer: docPeer, Docs: snap.Docs}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	dest, err := NewPeer(PeerConfig{ID: 1, Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{2, 3, 4, 5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()
	addrs := []string{restored.Addr(), dest.Addr()}
	restored.SetPeers(addrs)
	dest.SetPeers(addrs)
	dest.Start()
	restored.Start()
	waitCounter(t, 10*time.Second, "the inherited frame to be acknowledged", func() bool {
		return senderStates(restored)[stream{src: 0, dest: 1}].unacked == ""
	})
	if st := dest.Stats(); st.Processed != uint64(len(frame)) || st.DeltaFolded != 0.5+0.1-0.25+1e-300+2 {
		t.Fatalf("destination folded %d updates, delta %v; the frame has %d, delta %v", st.Processed, st.DeltaFolded, len(frame), 0.5+0.1-0.25+1e-300+2)
	}
	_, acc, _ := dest.rk.Rows()
	if want := []float64{2, 0.1 + 1e-300, 0, 0, 0, 0.5, 0, -0.25}; !slices.Equal(acc, want) {
		t.Fatalf("destination rows accumulated %v, want %v", acc, want)
	}
}

// TestRestoredPendingWithRepeatedDocumentsBalances: a checkpoint's
// pending updates are the retry queue as Drain handed it over, so a
// document may repeat. The restored peer frames them merged, one
// update a document summed in arrival order, and counts each merged
// update processed, so sent == processed once the frame is folded.
func TestRestoredPendingWithRepeatedDocumentsBalances(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.FromAdjacency(make([][]graph.NodeID, 10)) // no links: nothing else is ever shipped
	docPeer := []p2p.PeerID{0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	pending := []p2p.Update{{Doc: 7, Delta: 0.1}, {Doc: 3, Delta: 0.2}, {Doc: 7, Delta: 0.3}, {Doc: 3, Delta: 1e-17}, {Doc: 7, Delta: -0.05}}
	docs, folded, last := []graph.NodeID{0, 1}, []float64{0, 0}, make([]float64, 2)
	p2p.UniformRanksInto(last, 0.85, docs, folded) // all of the rank pushed
	var file bytes.Buffer
	if err := EncodeSnapshot(&PeerSnapshot{
		ID: 0, Docs: docs, Acc: folded, Last: last,
		Outbound:  []OutboundState{{Src: 0, Dest: 1, NextSeq: 1, Pending: slices.Clone(pending)}},
		PeerStats: PeerStats{Sent: uint64(len(pending))},
	}, &file); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(&file)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestorePeer(PeerConfig{ID: 0, Graph: g, DocPeer: docPeer, Docs: snap.Docs}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	dest, err := NewPeer(PeerConfig{ID: 1, Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{2, 3, 4, 5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()
	addrs := []string{restored.Addr(), dest.Addr()}
	restored.SetPeers(addrs)
	dest.SetPeers(addrs)
	dest.Start()
	restored.Start()
	waitCounter(t, 10*time.Second, "the merged pending updates to be folded", func() bool {
		return dest.Stats().Processed == 2 && senderStates(restored)[stream{src: 0, dest: 1}].unacked == ""
	})
	src, dst := restored.Stats(), dest.Stats()
	if src.Coalesced != 3 || src.Sent != src.Processed+dst.Processed {
		t.Fatalf("sent %d, processed %d here and %d there, %d coalesced; want sent == processed with 3 coalesced", src.Sent, src.Processed, dst.Processed, src.Coalesced)
	}
	_, acc, _ := dest.rk.Rows()
	want := make([]float64, 8) // rows 2..9, each the left-to-right sum of its pending updates
	for _, u := range pending {
		want[u.Doc-2] += u.Delta
	}
	if !slices.Equal(acc, want) {
		t.Fatalf("destination rows accumulated %v, want %v", acc, want)
	}
}

// TestFormatsPinned holds the checkpoint at version 10 to the bytes it
// was recorded with for the same state. A layout change re-records the
// hash, in a commit of its own.
func TestFormatsPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(fuzzSeedSnapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())),
		"a92ac683508a6d0af37e031b0e41a855529973cc60876f6aefd59b15398b1171"; got != want {
		t.Errorf("checkpoint sha256 %s, want %s", got, want)
	}
}

// TestForwardChainResolvesOnce: the cluster's address table follows a
// departed→departed→live chain to its live end, and the ownership push
// that moves the chain's documents routes them to that same slot, so a
// frame is dialed where its updates are routed.
func TestForwardChainResolvesOnce(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	c := &Cluster{slots: chainSlots()}
	v := c.viewLocked()
	for _, slot := range []p2p.PeerID{0, 1, 2} {
		if v[slot].Addr != "127.0.0.1:7002" {
			t.Errorf("cluster lists slot %d at %s, want slot 2's address", slot, v[slot].Addr)
		}
	}
	for slot, want := range []uint64{3, 2, 5, 0} {
		if v[slot].Epoch != want {
			t.Errorf("cluster lists slot %d at epoch %d, want its own %d", slot, v[slot].Epoch, want)
		}
	}
	// Peer 3 of a cluster where slot s owns documents 2s and 2s+1 is
	// pushed the two departures' migrations: slot 0's documents went to
	// slot 1, then slot 1's, those included, to slot 2.
	docPeer := make([]p2p.PeerID, 8)
	for d := range docPeer {
		docPeer[d] = p2p.PeerID(d / 2)
	}
	p, err := NewPeer(PeerConfig{ID: 3, Graph: graph.Cycle(8), DocPeer: docPeer, Docs: []graph.NodeID{6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.UpdateOwnership([]graph.NodeID{0, 1}, 1, v)
	p.UpdateOwnership([]graph.NodeID{2, 3, 0, 1}, 2, v)
	all := make([]p2p.Update, 8)
	for d := range all {
		all[d].Doc = graph.NodeID(d)
	}
	if got, want := p.rk.Owners(all, nil), []p2p.PeerID{2, 2, 2, 2, 2, 2, 3, 3}; !slices.Equal(got, want) {
		t.Errorf("owner table after the pushes %v, want %v", got, want)
	}
	for _, slot := range []p2p.PeerID{0, 1} {
		if p.peerAddr(slot) != p.peerAddr(2) {
			t.Errorf("peer dials slot %d at %s but routes its documents to slot 2 at %s", slot, p.peerAddr(slot), p.peerAddr(2))
		}
	}
}
