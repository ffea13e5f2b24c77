package p2p

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dpr/internal/dht"
	"dpr/internal/graph"
	"dpr/internal/rng"
)

func testNet(t testing.TB, docs, peers int, seed uint64) (*Network, *graph.Graph) {
	t.Helper()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, seed))
	n := NewNetwork(peers)
	n.AssignRandom(g, rng.New(seed+1))
	return n, g
}

func TestAssignRandomPlacesEverything(t *testing.T) {
	n, g := testNet(t, 2000, 50, 1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < n.NumPeers(); p++ {
		total += len(n.Docs(PeerID(p)))
	}
	if total != g.NumNodes() {
		t.Fatalf("placed %d docs, want %d", total, g.NumNodes())
	}
	for d := 0; d < g.NumNodes(); d++ {
		if n.PeerOf(graph.NodeID(d)) == NoPeer {
			t.Fatalf("doc %d unplaced", d)
		}
	}
}

func TestAssignRandomRoughlyBalanced(t *testing.T) {
	n, _ := testNet(t, 50000, 50, 2)
	for p := 0; p < 50; p++ {
		c := len(n.Docs(PeerID(p)))
		if c < 600 || c > 1400 {
			t.Fatalf("peer %d holds %d docs; expected ~1000", p, c)
		}
	}
}

func TestPeerOfOutOfRange(t *testing.T) {
	n, _ := testNet(t, 100, 5, 3)
	if n.PeerOf(1000) != NoPeer {
		t.Fatal("out-of-range doc has a peer")
	}
}

func TestPlaceDoc(t *testing.T) {
	n := NewNetwork(3)
	n.PlaceDoc(7, 2)
	if n.PeerOf(7) != 2 {
		t.Fatal("PlaceDoc failed")
	}
	if n.PeerOf(3) != NoPeer {
		t.Fatal("gap doc placed")
	}
	n.PlaceDoc(7, 0) // move it
	if n.PeerOf(7) != 0 {
		t.Fatal("move failed")
	}
	if len(n.Docs(2)) != 0 {
		t.Fatal("old peer still lists moved doc")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDocOnline(t *testing.T) {
	n := NewNetwork(2)
	n.PlaceDoc(0, 0)
	n.PlaceDoc(1, 0)
	n.PlaceDoc(2, 1)
	if !n.DocOnline(2) {
		t.Fatal("doc on online peer reported offline")
	}
	n.SetOnline(1, false)
	if n.DocOnline(2) {
		t.Fatal("doc on offline peer reported online")
	}
	if n.NumOnline() != 1 {
		t.Fatalf("NumOnline = %d", n.NumOnline())
	}
}

func TestChurnKeepsFraction(t *testing.T) {
	n, _ := testNet(t, 100, 40, 4)
	ch, err := NewChurn(n, 0.75, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		ch.Step()
		if got := n.NumOnline(); got != 30 {
			t.Fatalf("step %d: %d peers online, want 30", step, got)
		}
	}
}

func TestChurnNeverEmptiesNetwork(t *testing.T) {
	n := NewNetwork(10)
	ch, err := NewChurn(n, 0.01, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ch.Step()
	if n.NumOnline() < 1 {
		t.Fatal("churn emptied the network")
	}
}

func TestChurnValidation(t *testing.T) {
	n := NewNetwork(5)
	for _, a := range []float64{0, -0.5, 1.5} {
		if _, err := NewChurn(n, a, rng.New(1)); err == nil {
			t.Errorf("availability %v accepted", a)
		}
	}
}

func TestChurnIsRandom(t *testing.T) {
	n := NewNetwork(100)
	ch, _ := NewChurn(n, 0.5, rng.New(7))
	ch.Step()
	first := make([]bool, 100)
	for i := range first {
		first[i] = n.Online(PeerID(i))
	}
	same := true
	for step := 0; step < 5 && same; step++ {
		ch.Step()
		for i := range first {
			if n.Online(PeerID(i)) != first[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("churn selects the same peers every step")
	}
}

func TestRetryQueueDeferDrain(t *testing.T) {
	q := NewRetryQueue()
	q.Defer(3, Update{Doc: 1, Delta: 0.5})
	q.Defer(3, Update{Doc: 2, Delta: -0.25})
	q.Defer(4, Update{Doc: 3, Delta: 1})
	if q.Len() != 3 || !slices.Equal(q.Dests(), []PeerID{3, 4}) {
		t.Fatalf("Len=%d Dests=%v", q.Len(), q.Dests())
	}
	us := q.Drain(3)
	if len(us) != 2 || us[0].Doc != 1 || us[1].Delta != -0.25 {
		t.Fatalf("Drain(3) = %v", us)
	}
	if q.Len() != 1 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
	if q.Drain(99) != nil {
		t.Fatal("draining empty destination returned non-nil")
	}
}

func TestRetryQueueDrainOnline(t *testing.T) {
	n := NewNetwork(3)
	n.SetOnline(1, false)
	q := NewRetryQueue()
	q.Defer(0, Update{Doc: 10, Delta: 1})
	q.Defer(1, Update{Doc: 11, Delta: 1})
	q.Defer(2, Update{Doc: 12, Delta: 1})
	var got []PeerID
	delivered := q.DrainOnline(n, func(dest PeerID, u Update) { got = append(got, dest) })
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if q.Len() != 1 {
		t.Fatalf("offline peer's message drained; Len=%d", q.Len())
	}
	n.SetOnline(1, true)
	if d := q.DrainOnline(n, func(PeerID, Update) {}); d != 1 {
		t.Fatalf("second drain delivered %d", d)
	}
}

func TestIPCacheHitsAfterFirstSend(t *testing.T) {
	ring := dht.NewRing()
	for i := 0; i < 32; i++ {
		if _, err := ring.AddPeer(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	start := ring.Nodes()[0]
	c := NewIPCache(true)
	h1 := c.Hops(0, 42, ring, start)
	if h1 < 1 {
		t.Fatalf("first send hops = %d", h1)
	}
	h2 := c.Hops(0, 42, ring, start)
	if h2 != 1 {
		t.Fatalf("cached send hops = %d, want 1", h2)
	}
	// A different sender has its own cache entry.
	if c.Hops(1, 42, ring, start) < 1 {
		t.Fatal("other-sender hops")
	}
	routed, cached, hops := c.Stats()
	if routed != 2 || cached != 1 || hops < 2 {
		t.Fatalf("stats: routed=%d cached=%d hops=%d", routed, cached, hops)
	}
}

func TestIPCacheDisabledAlwaysRoutes(t *testing.T) {
	c := NewIPCache(false)
	c.Hops(0, 1, nil, nil)
	c.Hops(0, 1, nil, nil)
	routed, cached, _ := c.Stats()
	if routed != 2 || cached != 0 {
		t.Fatalf("disabled cache: routed=%d cached=%d", routed, cached)
	}
}

func TestIPCacheInvalidate(t *testing.T) {
	n := NewNetwork(2)
	n.PlaceDoc(5, 1)
	n.PlaceDoc(6, 0)
	c := NewIPCache(true)
	c.Hops(0, 5, nil, nil)
	c.Hops(0, 6, nil, nil)
	c.InvalidateDocs(n.Docs(1)) // drops doc 5's entry only
	routed, cached, _ := c.Stats()
	c.Hops(0, 6, nil, nil)
	c.Hops(0, 5, nil, nil)
	if r, h, _ := c.Stats(); r != routed+1 || h != cached+1 {
		t.Fatalf("after invalidating doc 5: %d routed and %d cached, want %d and %d", r, h, routed+1, cached+1)
	}
}

// TestIPCacheInvalidateUnderChurn replays the membership scenario the
// cache must survive: a sender caches the owner of a document, that
// owner departs and its key range moves to the ring successor, and the
// stale entry — now pointing at a dead peer — is invalidated. The next
// send must pay a fresh DHT route (and be charged for it), re-learn
// the live owner, and then drop back to one-hop direct sends.
func TestIPCacheInvalidateUnderChurn(t *testing.T) {
	ring := dht.NewRing()
	for i := 0; i < 16; i++ {
		if _, err := ring.AddPeer(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	start := ring.Nodes()[0]
	const doc = graph.NodeID(42)
	key := dht.GUIDFromUint64(uint64(doc)).ID()
	victim := ring.Owner(key)
	if victim == start {
		start = ring.Nodes()[1]
	}

	c := NewIPCache(true)
	if h := c.Hops(0, doc, ring, start); h < 1 {
		t.Fatalf("first send hops = %d", h)
	}
	if h := c.Hops(0, doc, ring, start); h != 1 {
		t.Fatalf("cached send hops = %d, want 1", h)
	}
	routedBefore, cachedBefore, hopsBefore := c.Stats()

	// The owner departs; its range now belongs to the successor. The
	// cache entry for doc is stale — it names a dead peer's address.
	if err := ring.LeaveGraceful(victim); err != nil {
		t.Fatal(err)
	}
	if owner := ring.Owner(key); owner == victim {
		t.Fatal("departed peer still owns the key")
	}
	c.InvalidateDocs([]graph.NodeID{doc})

	// Repair: the next send routes again and is charged DHT hops.
	h := c.Hops(0, doc, ring, start)
	if h < 1 {
		t.Fatalf("re-resolution hops = %d", h)
	}
	routed, cached, hops := c.Stats()
	if routed != routedBefore+1 {
		t.Fatalf("re-resolution not counted as routed: %d -> %d", routedBefore, routed)
	}
	if cached != cachedBefore {
		t.Fatalf("re-resolution wrongly counted as cache hit: %d -> %d", cachedBefore, cached)
	}
	if hops != hopsBefore+int64(h) {
		t.Fatalf("hop accounting off: %d + %d != %d", hopsBefore, h, hops)
	}
	// Repaired: direct sends again.
	if h := c.Hops(0, doc, ring, start); h != 1 {
		t.Fatalf("post-repair send hops = %d, want 1", h)
	}
	if r2, c2, _ := c.Stats(); r2 != routed || c2 != cached+1 {
		t.Fatalf("post-repair stats: routed=%d cached=%d", r2, c2)
	}
}

func TestCounters(t *testing.T) {
	c := &Counters{InterPeerMsgs: 100, IntraPeerMsgs: 50, Passes: 7}
	if c.Total() != 150 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.PerNode(10) != 10 {
		t.Fatalf("PerNode = %v", c.PerNode(10))
	}
	if c.PerNode(0) != 0 {
		t.Fatal("PerNode(0) should be 0")
	}
}

// Property: placement is total and consistent for any doc/peer counts.
func TestAssignmentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		peers := 1 + r.Intn(20)
		docs := 2 + r.Intn(500)
		g := graph.Random(docs, 1, seed)
		n := NewNetwork(peers)
		n.AssignRandom(g, r)
		if n.Validate() != nil {
			return false
		}
		total := 0
		for p := 0; p < peers; p++ {
			total += len(n.Docs(PeerID(p)))
		}
		return total == docs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
