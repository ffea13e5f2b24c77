package p2p

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dpr/internal/graph"
	"dpr/internal/rng"
)

func TestRetryQueueDeferMergeCoalesces(t *testing.T) {
	q := NewRetryQueue()
	// Many updates to few documents: they queue as they come, and the
	// drain merges them to one entry per document, deltas summed.
	for i := 0; i < 100; i++ {
		q.DeferMerge(3, Update{Doc: graph.NodeID(i % 4), Delta: 0.5})
	}
	if q.Len() != 100 || q.Merges() != 0 {
		t.Fatalf("Len = %d, Merges = %d before the drain, want 100 and 0", q.Len(), q.Merges())
	}
	us := q.DrainN(3, 4096)
	if len(us) != 4 {
		t.Fatalf("drained %d updates, want 4 distinct docs", len(us))
	}
	if q.Merges() != 96 {
		t.Fatalf("Merges = %d, want 96", q.Merges())
	}
	for i, u := range us {
		if u.Doc != graph.NodeID(i) || u.Delta != 12.5 {
			t.Fatalf("drained %v, want docs 0..3 in order with 12.5 each", us)
		}
	}
	if q.Len() != 0 || len(q.Dests()) != 0 {
		t.Fatalf("queue not empty after drain: len=%d dests=%v", q.Len(), q.Dests())
	}
}

// TestRetryQueueDrainHandsOverUnmerged: Drain merges nothing. It hands
// over the run the last merge left and then what arrived since, as it
// arrived, and Merges does not move; a document may repeat.
func TestRetryQueueDrainHandsOverUnmerged(t *testing.T) {
	q := NewRetryQueue()
	q.DeferMerge(1, Update{Doc: 9, Delta: 1}, Update{Doc: 2, Delta: 1}, Update{Doc: 9, Delta: 2}, Update{Doc: 4, Delta: 1})
	if got := q.DrainN(1, 1); !slices.Equal(got, []Update{{Doc: 2, Delta: 1}}) || q.Merges() != 1 {
		t.Fatalf("DrainN(1) = %v with %d merges, want doc 2 and 1 merge", got, q.Merges())
	}
	q.Defer(1, Update{Doc: 4, Delta: 5})
	q.DeferMerge(1, Update{Doc: 1, Delta: 1}, Update{Doc: 4, Delta: 3})
	want := []Update{{Doc: 4, Delta: 1}, {Doc: 9, Delta: 3}, {Doc: 4, Delta: 5}, {Doc: 1, Delta: 1}, {Doc: 4, Delta: 3}}
	if got := q.Drain(1); !slices.Equal(got, want) || q.Merges() != 1 {
		t.Fatalf("Drain = %v with %d merges, want %v and 1", got, q.Merges(), want)
	}
	if q.Len() != 0 || len(q.Dests()) != 0 || q.Drain(1) != nil || q.DrainN(1, 5) != nil {
		t.Fatal("queue not empty after Drain")
	}
}

// TestRetryQueueBoundedUnderStalledDestination: a destination that never
// drains holds no more than max(compactFloor, 2 × its distinct
// documents) updates, however many arrive, and loses none.
func TestRetryQueueBoundedUnderStalledDestination(t *testing.T) {
	const docs, updates = 1000, 1 << 20
	q := NewRetryQueue()
	r := rng.New(41)
	bound := max(compactFloor, 2*docs)
	for sent := 0; sent < updates; {
		batch := make([]Update, min(1+r.Intn(64), updates-sent))
		for i := range batch {
			batch[i] = Update{Doc: graph.NodeID(r.Intn(docs)), Delta: 1}
		}
		q.DeferMerge(7, batch...)
		if sent += len(batch); q.Len() > bound {
			t.Fatalf("%d updates queued after %d sent, bound %d", q.Len(), sent, bound)
		}
	}
	us := q.DrainN(7, updates)
	total := 0.0
	for _, u := range us {
		total += u.Delta
	}
	if len(us) > docs || total != updates || q.Merges() != updates-len(us) {
		t.Fatalf("drained %d entries summing to %v with %d merges, want at most %d summing to %d", len(us), total, q.Merges(), docs, updates)
	}
}

// TestRetryQueueDoesNotStarveUnderBacklog: under a standing backlog —
// every document framed is queued again, and the lowest documents are
// queued before every frame — each queued document is framed within
// ⌈queued / frame⌉ frames. A drain that took the lowest documents first
// would frame those and nothing else.
func TestRetryQueueDoesNotStarveUnderBacklog(t *testing.T) {
	const docs, frame = 5000, 512
	q := NewRetryQueue()
	since := make([]int, docs) // the frame since which each document has waited
	for d := range docs {
		q.DeferMerge(1, Update{Doc: graph.NodeID(d), Delta: 1})
	}
	for f := 0; f < 100; f++ {
		for d := range 64 {
			q.DeferMerge(1, Update{Doc: graph.NodeID(d), Delta: 1})
		}
		within := (q.Len() + frame - 1) / frame
		took := slices.Clone(q.DrainN(1, frame))
		if !slices.IsSortedFunc(took, func(a, b Update) int { return cmp.Compare(a.Doc, b.Doc) }) {
			t.Fatalf("frame %d not ordered by document", f)
		}
		for _, u := range took {
			since[u.Doc] = f + 1
			q.DeferMerge(1, Update{Doc: u.Doc, Delta: 1})
		}
		for d, s := range since {
			if waited := f + 1 - s; waited >= within {
				t.Fatalf("after frame %d, doc %d has waited %d frames unframed, want it framed within %d", f, d, waited, within)
			}
		}
	}
}

// modelQueue is the reference the RetryQueue is checked against: per
// destination, the queued updates as a plain slice, how many at its
// front are left of the last merge's run and how long that run was, and
// where the last drain stopped. A merge stable-sorts the whole queue
// with the library, from document 0 when no run is left, and sums
// neighbours. Slow, and obviously right.
type modelQueue struct {
	pending      map[PeerID][]Update
	sorted, left map[PeerID]int
	from         map[PeerID]uint32
	merges       int
}

func (m *modelQueue) deferMerge(dest PeerID, us []Update, merge bool) {
	m.pending[dest] = append(m.pending[dest], us...)
	if n := len(m.pending[dest]); merge && n > 0 && n >= max(compactFloor, 2*m.left[dest]) {
		m.merge(dest)
	}
}

func (m *modelQueue) merge(dest PeerID) {
	if len(m.pending[dest]) == m.sorted[dest] {
		return // nothing arrived since the last merge
	}
	if m.sorted[dest] == 0 {
		m.from[dest] = 0
	}
	from := m.from[dest]
	us := slices.Clone(m.pending[dest])
	slices.SortStableFunc(us, func(a, b Update) int { return cmp.Compare(uint32(a.Doc)-from, uint32(b.Doc)-from) })
	var out []Update
	for _, u := range us {
		if n := len(out) - 1; n >= 0 && out[n].Doc == u.Doc {
			out[n].Delta += u.Delta
			m.merges++
		} else {
			out = append(out, u)
		}
	}
	m.pending[dest], m.sorted[dest], m.left[dest] = out, len(out), len(out)
}

func (m *modelQueue) drainN(dest PeerID, n int) []Update {
	if n = min(n, len(m.pending[dest])); n <= 0 {
		return nil
	}
	m.merge(dest)
	us := m.pending[dest]
	n = min(n, len(us))
	m.from[dest] = uint32(us[n-1].Doc) + 1
	out := slices.Clone(us[:n])
	slices.SortFunc(out, func(a, b Update) int { return cmp.Compare(uint32(a.Doc), uint32(b.Doc)) })
	if m.pending[dest], m.sorted[dest] = us[n:], len(us)-n; n == len(us) {
		m.left[dest] = 0
	}
	return out
}

func (m *modelQueue) drain(dest PeerID) []Update {
	us := m.pending[dest]
	m.pending[dest], m.sorted[dest], m.left[dest] = nil, 0, 0
	return us
}

func (m *modelQueue) len() (n int) {
	for _, us := range m.pending {
		n += len(us)
	}
	return n
}

// retryScript drives the queue and the model through one script of
// Defer / DeferMerge / DrainN / Drain / reroute steps, each choice in
// [0, n) drawn by intn, for as long as more reports, and requires the
// same updates out in the same order — a merged delta equal bit for bit
// to the model's sum in arrival order — and the same Len, Queued,
// Merges, Destinations, Dests and Mass after every step. It returns ""
// or the first step at which the two disagree. Few destinations and
// documents, and a compaction floor lowered to a few entries, keep
// merges on enqueue and on drain, partial drains that wrap round the
// documents, in-place reclaiming and storage release all busy. The
// caller restores compactFloor.
func retryScript(intn func(n int) int, more func() bool) string {
	compactFloor = 1 + intn(64)
	q := NewRetryQueue()
	m := &modelQueue{pending: make(map[PeerID][]Update), sorted: make(map[PeerID]int), left: make(map[PeerID]int), from: make(map[PeerID]uint32)}
	docs := 1 + intn(200)
	doc := func() graph.NodeID {
		if intn(8) == 0 {
			return graph.NodeID(-1 - intn(3)) // ids past MaxInt32 as the codec's u32
		}
		return graph.NodeID(intn(docs))
	}
	for step := 0; more(); step++ {
		dest := PeerID(intn(5) - 1) // NoPeer included
		switch op := intn(20); {
		case op < 1:
			u := Update{Doc: doc(), Delta: float64(1 + intn(8))}
			q.Defer(dest, u)
			m.deferMerge(dest, []Update{u}, false)
		case op < 15:
			us := make([]Update, 1+intn(4))
			for j := range us {
				// Deltas that round when summed, so the order of a sum shows.
				us[j] = Update{Doc: doc(), Delta: 1 / float64(1+intn(9))}
			}
			q.DeferMerge(dest, us...)
			m.deferMerge(dest, us, true)
		case op < 17:
			n := intn(40) - 1
			if got, want := q.DrainN(dest, n), m.drainN(dest, n); !slices.Equal(got, want) {
				return fmt.Sprintf("step %d: DrainN(%d, %d) = %v, model %v", step, dest, n, got, want)
			}
		case op < 18:
			if got, want := q.Drain(dest), m.drain(dest); !slices.Equal(got, want) {
				return fmt.Sprintf("step %d: Drain(%d) = %v, model %v", step, dest, got, want)
			}
		default: // reroute, as a peer does after an ownership change
			to := PeerID(intn(4))
			got, want := q.Drain(dest), m.drain(dest)
			if !slices.Equal(got, want) {
				return fmt.Sprintf("step %d: rerouting Drain(%d) = %v, model %v", step, dest, got, want)
			}
			q.DeferMerge(to, got...)
			m.deferMerge(to, want, true)
		}
		mass := 0.0
		var dests []PeerID
		for d := PeerID(-1); d < 4; d++ {
			if len(m.pending[d]) > 0 {
				dests = append(dests, d)
			}
			if q.Queued(d) != len(m.pending[d]) {
				return fmt.Sprintf("step %d: Queued(%d) = %d, model %d", step, d, q.Queued(d), len(m.pending[d]))
			}
			for _, e := range m.pending[d] {
				mass += e.Delta
			}
		}
		if q.Len() != m.len() || q.Merges() != m.merges ||
			!slices.Equal(q.Dests(), dests) || q.Mass() != mass {
			return fmt.Sprintf("step %d: Len %d, Merges %d, Dests %v, Mass %v; model %d, %d, %v, %v",
				step, q.Len(), q.Merges(), q.Dests(), q.Mass(), m.len(), m.merges, dests, mass)
		}
	}
	return ""
}

// TestRetryQueueMatchesModel runs retryScript on scripts drawn from
// random seeds.
func TestRetryQueueMatchesModel(t *testing.T) {
	if raceDetector {
		t.Skip("one-goroutine model test skipped under -race; make ci runs it without")
	}
	defer func(floor int) { compactFloor = floor }(compactFloor)
	run := func(seed uint64, steps uint16) bool {
		if msg := retryScript(seededScript(seed, int(steps)%4000)); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRetryQueueModel searches for a script on which the queue and the
// model disagree: retryScript with each choice read from the input.
// The corpus is the scripts of seeds 1–8, 500 steps each, byte for
// byte.
func FuzzRetryQueueModel(f *testing.F) {
	defer func(floor int) { compactFloor = floor }(compactFloor)
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(recordScript(seed, 500, retryScript))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if msg := retryScript(byteScript(script)); msg != "" {
			t.Fatal(msg)
		}
	})
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
// update from queue to ordered frame: appended, merged and sorted by
// the drain, and copied out as the sender's frame. The backlog case
// keeps more queued than one DrainN takes, which is where a drain that
// re-sorted the remainder for every frame would go quadratic.
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
					_ = slices.Clone(q.DrainN(1, 4096))
				}
			}
		})
	}
}

// TestSortUpdatesMatchesStableSort holds the radix sort to the library's
// stable sort on the codec's key, for keys of one to four bytes, runs of
// equal keys, and frames of every small size.
func TestSortUpdatesMatchesStableSort(t *testing.T) {
	r := rng.New(29)
	byDoc := func(a, b Update) int { return cmp.Compare(uint32(a.Doc), uint32(b.Doc)) }
	for round := 0; round < 400; round++ {
		us := make([]Update, []int{0, 1, 2, 3, 17, 300, 5000}[round%7])
		bits := []int{3, 11, 19, 22, 32}[round%5]
		for i := range us {
			us[i] = Update{Doc: graph.NodeID(uint32(r.Uint64()) >> (32 - bits)), Delta: float64(i)} // Delta is the arrival order
		}
		if round%3 == 0 {
			slices.SortStableFunc(us, byDoc) // frames out of a checkpoint arrive sorted
		}
		want := slices.Clone(us)
		slices.SortStableFunc(want, byDoc)
		if SortUpdates(us); !slices.Equal(us, want) {
			t.Fatalf("round %d: %d updates of %d-bit documents sorted differently from the stable sort", round, len(us), bits)
		}
	}
}

// BenchmarkFrameSort is what ordering a frame costs per update, the
// frame's own copy included: 4096 updates for documents of one
// destination's share of 500k on 8 peers, in the order folds queued
// them.
func BenchmarkFrameSort(b *testing.B) {
	r := rng.New(19)
	queued := make([]Update, 4096)
	for i := range queued {
		queued[i] = Update{Doc: graph.NodeID(8*r.Intn(500000/8) + 5), Delta: r.Float64()}
	}
	s := sorter{tmp: make([]Update, len(queued))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(queued) {
		s.sort(slices.Clone(queued))
	}
}
