package p2p

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dpr/internal/graph"
	"dpr/internal/rng"
)

func TestRetryQueueDeferMergeCoalesces(t *testing.T) {
	q := NewRetryQueue()
	// Many updates to few documents: the queue must stay bounded by the
	// number of distinct (dest, doc) pairs, with deltas summed.
	for i := 0; i < 100; i++ {
		q.DeferMerge(3, Update{Doc: graph.NodeID(i % 4), Delta: 0.5})
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4 distinct docs", q.Len())
	}
	if q.MaxLen() != 4 {
		t.Fatalf("MaxLen = %d, want 4", q.MaxLen())
	}
	if q.Merges() != 96 {
		t.Fatalf("Merges = %d, want 96", q.Merges())
	}
	us := q.Drain(3)
	if len(us) != 4 {
		t.Fatalf("drained %d updates", len(us))
	}
	total := 0.0
	for _, u := range us {
		if math.Abs(u.Delta-12.5) > 1e-12 {
			t.Fatalf("doc %d delta %v, want 12.5", u.Doc, u.Delta)
		}
		total += u.Delta
	}
	if math.Abs(total-50) > 1e-12 {
		t.Fatalf("total drained delta %v, want 50", total)
	}
	if q.Len() != 0 || q.Destinations() != 0 {
		t.Fatalf("queue not empty after drain: len=%d dests=%d", q.Len(), q.Destinations())
	}
}

func TestRetryQueueDeferMergeReportsAbsorption(t *testing.T) {
	q := NewRetryQueue()
	if q.DeferMerge(1, Update{Doc: 7, Delta: 1}) {
		t.Fatal("first update reported as merged")
	}
	if !q.DeferMerge(1, Update{Doc: 7, Delta: 2}) {
		t.Fatal("second update to same doc not merged")
	}
	if q.DeferMerge(2, Update{Doc: 7, Delta: 3}) {
		t.Fatal("same doc, different dest reported as merged")
	}
}

func TestRetryQueueDeferMergeAfterPlainDefer(t *testing.T) {
	// Defer appends without indexing; DeferMerge must still coalesce
	// against those entries after rebuilding its index.
	q := NewRetryQueue()
	q.Defer(5, Update{Doc: 1, Delta: 1})
	q.Defer(5, Update{Doc: 2, Delta: 1})
	if !q.DeferMerge(5, Update{Doc: 1, Delta: 0.5}) {
		t.Fatal("did not merge into plain-deferred entry")
	}
	// And Defer after DeferMerge invalidates the index without losing
	// entries.
	q.Defer(5, Update{Doc: 3, Delta: 1})
	if !q.DeferMerge(5, Update{Doc: 3, Delta: 1}) {
		t.Fatal("did not merge after index invalidation")
	}
	us := q.Drain(5)
	if len(us) != 3 {
		t.Fatalf("drained %d updates, want 3", len(us))
	}
	want := map[graph.NodeID]float64{1: 1.5, 2: 1, 3: 2}
	for _, u := range us {
		if math.Abs(u.Delta-want[u.Doc]) > 1e-12 {
			t.Fatalf("doc %d delta %v, want %v", u.Doc, u.Delta, want[u.Doc])
		}
	}
}

func TestRetryQueueDrainNPartial(t *testing.T) {
	q := NewRetryQueue()
	for i := 0; i < 5; i++ {
		q.DeferMerge(3, Update{Doc: graph.NodeID(i), Delta: float64(i)})
	}
	got := q.DrainN(3, 2)
	if len(got) != 2 || got[0].Doc != 0 || got[1].Doc != 1 {
		t.Fatalf("DrainN(2) = %v, want oldest two docs", got)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after partial drain, want 3", q.Len())
	}
	// The remainder must still coalesce: the index was invalidated by
	// the shift and has to rebuild against the new positions.
	if !q.DeferMerge(3, Update{Doc: 4, Delta: 1}) {
		t.Fatal("did not merge into a remaining entry after partial drain")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after merge, want 3", q.Len())
	}
	// n past the queue length takes the full-drain path.
	rest := q.DrainN(3, 10)
	if len(rest) != 3 {
		t.Fatalf("DrainN(10) drained %d updates, want 3", len(rest))
	}
	want := map[graph.NodeID]float64{2: 2, 3: 3, 4: 5}
	for _, u := range rest {
		if math.Abs(u.Delta-want[u.Doc]) > 1e-12 {
			t.Fatalf("doc %d delta %v, want %v", u.Doc, u.Delta, want[u.Doc])
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after full drain, want 0", q.Len())
	}
	if us := q.DrainN(3, 1); us != nil {
		t.Fatalf("DrainN on empty queue = %v, want nil", us)
	}
	q.DeferMerge(3, Update{Doc: 0, Delta: 1})
	if us := q.DrainN(3, 0); us != nil {
		t.Fatalf("DrainN(0) = %v, want nil", us)
	}
}

func TestRetryQueueDrainResetsIndex(t *testing.T) {
	q := NewRetryQueue()
	q.DeferMerge(1, Update{Doc: 4, Delta: 1})
	q.Drain(1)
	// A fresh update after a drain must start a new entry, not merge
	// into a stale index position.
	if q.DeferMerge(1, Update{Doc: 4, Delta: 2}) {
		t.Fatal("merged into drained entry")
	}
	us := q.Drain(1)
	if len(us) != 1 || us[0].Delta != 2 {
		t.Fatalf("post-drain state: %v", us)
	}
}

// modelQueue is the reference the RetryQueue is checked against: a
// slice per destination and a doc->position map that is thrown away
// and rebuilt whenever positions shift. Slow, and obviously right.
type modelQueue struct {
	pending map[PeerID][]Update
	merges  int
}

func (m *modelQueue) deferMerge(dest PeerID, u Update, merge bool) bool {
	if merge {
		idx := make(map[graph.NodeID]int)
		for i, e := range m.pending[dest] {
			idx[e.Doc] = i // a later entry for the same doc wins
		}
		if i, ok := idx[u.Doc]; ok {
			m.pending[dest][i].Delta += u.Delta
			m.merges++
			return true
		}
	}
	m.pending[dest] = append(m.pending[dest], u)
	return false
}

func (m *modelQueue) drainN(dest PeerID, n int) []Update {
	us := m.pending[dest]
	if n <= 0 || len(us) == 0 {
		return nil
	}
	n = min(n, len(us))
	out := append([]Update(nil), us[:n]...)
	if m.pending[dest] = append([]Update(nil), us[n:]...); n == len(us) {
		delete(m.pending, dest)
	}
	return out
}

func (m *modelQueue) len() (n int) {
	for _, us := range m.pending {
		n += len(us)
	}
	return n
}

// TestRetryQueueMatchesModel drives the queue and the model through
// the same random Defer / DeferMerge / DrainN / Drain / reroute
// sequences and requires the same updates out in the same order, and
// the same Len, Queued, Merges, Destinations, Dests and Mass after every
// step.
// Few destinations and documents keep merges, partial drains, in-place
// compaction, index rebuilds and storage release all busy.
func TestRetryQueueMatchesModel(t *testing.T) {
	if raceDetector {
		t.Skip("one-goroutine model test skipped under -race; make ci runs it without")
	}
	run := func(seed uint64, steps uint16) bool {
		r := rng.New(seed)
		q, m := NewRetryQueue(), &modelQueue{pending: make(map[PeerID][]Update)}
		docs := 1 + r.Intn(200)
		same := func(got, want []Update) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		for i := 0; i < int(steps)%4000; i++ {
			dest := PeerID(r.Intn(5) - 1) // NoPeer included
			u := Update{Doc: graph.NodeID(r.Intn(docs)), Delta: float64(1 + r.Intn(8))}
			switch op := r.Intn(20); {
			case op < 1:
				q.Defer(dest, u)
				m.deferMerge(dest, u, false)
			case op < 15:
				if q.DeferMerge(dest, u) != m.deferMerge(dest, u, true) {
					return false
				}
			case op < 17:
				n := r.Intn(40) - 1
				if !same(q.DrainN(dest, n), m.drainN(dest, n)) {
					return false
				}
			case op < 18:
				if !same(q.Drain(dest), m.drainN(dest, 1<<30)) {
					return false
				}
			default: // reroute, as a peer does after an ownership change
				to := PeerID(r.Intn(4))
				got, want := q.Drain(dest), m.drainN(dest, 1<<30)
				if !same(got, want) {
					return false
				}
				for _, e := range got {
					if q.DeferMerge(to, e) != m.deferMerge(to, e, true) {
						return false
					}
				}
			}
			mass := 0.0
			var dests []PeerID
			for d := PeerID(-1); d < 4; d++ {
				if len(m.pending[d]) > 0 {
					dests = append(dests, d)
				}
				if q.Queued(d) != len(m.pending[d]) {
					return false
				}
				for _, e := range m.pending[d] {
					mass += e.Delta
				}
			}
			if q.Len() != m.len() || q.Merges() != m.merges || q.Destinations() != len(dests) ||
				!slices.Equal(q.Dests(), dests) || q.Mass() != mass {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRetryQueueWarmCycleAllocatesNothing gates the live path: once a
// destination's storage and index fit its traffic, queueing a round of
// updates and framing them off again costs no allocation.
func TestRetryQueueWarmCycleAllocatesNothing(t *testing.T) {
	q := NewRetryQueue()
	cycle := func() {
		for i := 0; i < 6000; i++ {
			q.DeferMerge(3, Update{Doc: graph.NodeID(i % 5000), Delta: 1})
		}
		for len(q.DrainN(3, 4096)) > 0 {
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm DeferMerge+DrainN cycle allocates %v times, want 0", allocs)
	}
}

// BenchmarkRetryQueueDeferMergeDrainN is the sender-side cost of one
// update: coalesced in, framed out. The backlog case keeps more queued
// than one DrainN takes, which is where a drain that copies the
// remainder and drops the index goes quadratic.
func BenchmarkRetryQueueDeferMergeDrainN(b *testing.B) {
	for _, bc := range []struct {
		name            string
		round, distinct int
	}{{"round=2k", 2048, 1 << 16}, {"backlog=64k", 1 << 16, 1 << 17}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			q := NewRetryQueue()
			doc := 0
			for i := 0; i < b.N; i += bc.round {
				for j := 0; j < bc.round; j++ {
					q.DeferMerge(1, Update{Doc: graph.NodeID(doc % bc.distinct), Delta: 1})
					doc += 7
				}
				for q.Len() > bc.round/2 { // the backlog case leaves half queued
					q.DrainN(1, 4096)
				}
			}
		})
	}
}
