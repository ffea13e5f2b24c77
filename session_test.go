package dpr

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dpr/internal/rng"
)

func TestSessionInsertRemove(t *testing.T) {
	g, err := GenerateWebGraph(800, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, Options{Peers: 10, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(s.Ranks())
	passes0 := s.Passes()

	id, err := s.InsertDocument([]NodeID{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if id != 800 || s.NumDocuments() != 801 {
		t.Fatalf("inserted %d, %d documents", id, s.NumDocuments())
	}
	if s.Ranks()[5] <= before[5] {
		t.Fatal("insert did not raise target rank")
	}
	// Incremental: re-convergence takes far fewer passes than the
	// initial computation.
	if insertPasses := s.Passes() - passes0; insertPasses > passes0 {
		t.Fatalf("insert took %d passes vs %d initial", insertPasses, passes0)
	}

	if err := s.RemoveDocument(7); err != nil {
		t.Fatal(err)
	}
	if s.Ranks()[7] != 0 {
		t.Fatal("removed document still ranked")
	}
	if err := s.RemoveDocument(7); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := s.AddLink(7, 5); err == nil {
		t.Fatal("linked from a removed document")
	}
	if err := s.AddLink(900, 5); err == nil {
		t.Fatal("linked from a document outside the session")
	}
	if _, err := s.InsertDocument([]NodeID{-1}); err == nil {
		t.Fatal("inserted a document linking outside the session")
	}
	if s.NetworkMessages() == 0 {
		t.Fatal("no messages recorded")
	}
}

func TestSessionWorkersBitIdentical(t *testing.T) {
	var ranks [2][]float64
	for i, workers := range []int{1, 4} {
		g, err := GenerateWebGraph(800, 4)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, Options{Peers: 10, Epsilon: 1e-8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertDocument([]NodeID{5, 6}); err != nil {
			t.Fatal(err)
		}
		ranks[i] = s.Ranks()
	}
	if !slices.Equal(ranks[0], ranks[1]) {
		t.Fatal("ranks differ between 1 worker and 4")
	}
}

func TestSessionLifecycle(t *testing.T) {
	g, err := GenerateWebGraph(600, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, Options{Peers: 10, Epsilon: 1e-9, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDocuments() != 600 {
		t.Fatalf("NumDocuments = %d", s.NumDocuments())
	}

	// Add a document, link to it, edit links, remove a document.
	id, err := s.InsertDocument([]NodeID{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if id != 600 {
		t.Fatalf("new id = %d", id)
	}
	if err := s.AddLink(0, id); err != nil {
		t.Fatal(err)
	}
	if s.Ranks()[id] <= 0.15 {
		t.Fatalf("new doc rank %v did not rise after in-link", s.Ranks()[id])
	}
	if err := s.RemoveLink(0, id); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Ranks()[id]-0.15) > 1e-6 {
		t.Fatalf("rank %v did not fall back after link removal", s.Ranks()[id])
	}
	if err := s.AddLink(1, id); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDocument(id); err != nil {
		t.Fatal(err)
	}
	if s.Ranks()[id] != 0 {
		t.Fatal("removed doc still ranked")
	}

	// Final ranks agree with the solver on the final topology. The
	// removed document keeps its id with no links in or out: it holds
	// rank 0 where the solver gives it 1-d.
	ref, err := CentralizedPageRank(s.Snapshot(), 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if NodeID(i) != id && math.Abs(s.Ranks()[i]-ref[i]) > 1e-3*ref[i] {
			t.Fatalf("rank[%d]: session %v vs centralized %v", i, s.Ranks()[i], ref[i])
		}
	}
	if s.Passes() == 0 {
		t.Fatal("no passes recorded")
	}
}

func TestSessionNoOps(t *testing.T) {
	g := GraphFromLinks([][]NodeID{{1}, {0}})
	s, err := NewSession(g, Options{Peers: 2, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(s.Ranks())
	// Adding an existing link and removing a missing one are no-ops.
	if err := s.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveLink(1, 1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Ranks(), before) {
		t.Fatal("no-op changed ranks")
	}
}

func TestSessionRejectsTeleport(t *testing.T) {
	g := GraphFromLinks([][]NodeID{{1}, {0}})
	if _, err := NewSession(g, Options{Peers: 2, Teleport: []float64{1, 1}}); err == nil {
		t.Fatal("accepted teleport")
	}
}

func TestSessionRejectsAvailability(t *testing.T) {
	g := GraphFromLinks([][]NodeID{{1}, {0}})
	if _, err := NewSession(g, Options{Peers: 2, Availability: 0.5}); err == nil {
		t.Fatal("accepted availability 0.5")
	}
}

func TestSessionGrowFromTiny(t *testing.T) {
	// Start from a two-document graph and grow a chain.
	g := GraphFromLinks([][]NodeID{{1}, {}})
	s, err := NewSession(g, Options{Peers: 3, Epsilon: 1e-10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prev := NodeID(1)
	for i := 0; i < 10; i++ {
		id, err := s.InsertDocument(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddLink(prev, id); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	// The chain's ranks match the solver exactly.
	ref, err := CentralizedPageRank(s.Snapshot(), 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(s.Ranks()[i]-ref[i]) > 1e-6 {
			t.Fatalf("rank[%d]: %v vs %v", i, s.Ranks()[i], ref[i])
		}
	}
}

// A session grown by an insert checkpoints, and the checkpoint restores
// into a session over the grown topology, which then carries on as the
// original does.
func TestSessionCheckpointAfterInsert(t *testing.T) {
	g, err := GenerateWebGraph(500, 6)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Peers: 8, Epsilon: 1e-10, Seed: 6}
	s, err := NewSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.InsertDocument([]NodeID{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddLink(0, id); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	old, err := NewSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Restore(bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("restored a grown session's checkpoint over the old topology")
	}
	r, err := NewSession(s.Snapshot(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{s, r} {
		if err := sess.AddLink(1, id); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range s.Ranks() {
		if got := r.Ranks()[i]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("rank[%d]: restored %v vs uninterrupted %v", i, got, want)
		}
	}
}

// §3.1 deletes a document's row and its column: documents linking to
// it stop dividing their rank by a degree that counts it.
func TestSessionRemoveTakesItsColumn(t *testing.T) {
	g := GraphFromLinks([][]NodeID{{1, 2}, {0}, {0}})
	s, err := NewSession(g, Options{Peers: 2, Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDocument(2); err != nil {
		t.Fatal(err)
	}
	for d, want := range []float64{1, 1, 0} {
		if got := s.Ranks()[d]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", d, got, want)
		}
	}
	if links := s.Snapshot().OutLinks(0); !slices.Equal(links, []NodeID{1}) {
		t.Fatalf("0 still links to %v", links)
	}
}

func TestSessionRefusesLinkToRemoved(t *testing.T) {
	g := GraphFromLinks([][]NodeID{{1}, {2}, {0}})
	s, err := NewSession(g, Options{Peers: 2, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDocument(2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLink(0, 2); err == nil {
		t.Fatal("linked to a removed document")
	}
	if _, err := s.InsertDocument([]NodeID{0, 2}); err == nil {
		t.Fatal("inserted a document linking to a removed one")
	}
	if s.NumDocuments() != 3 || s.Snapshot().NumEdges() != 1 {
		t.Fatalf("refused edits left %d documents and %d links", s.NumDocuments(), s.Snapshot().NumEdges())
	}
}

// A seeded script of inserts, link edits and removals: no link of the
// final topology touches a removed document, and every live rank
// matches the centralized solver on it.
func TestSessionEditScript(t *testing.T) {
	g, err := GenerateWebGraph(300, 21)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, Options{Peers: 6, Epsilon: 1e-10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	removed := map[NodeID]bool{}
	pick := func() NodeID { // a live document
		for {
			if d := NodeID(r.Intn(s.NumDocuments())); !removed[d] {
				return d
			}
		}
	}
	for op := range 60 {
		var err error
		switch r.Intn(4) {
		case 0:
			_, err = s.InsertDocument([]NodeID{pick(), pick()})
		case 1:
			if from, to := pick(), pick(); from != to {
				err = s.AddLink(from, to)
			}
		case 2:
			from := pick()
			if links := s.Snapshot().OutLinks(from); len(links) > 0 {
				err = s.RemoveLink(from, links[r.Intn(len(links))])
			}
		case 3:
			d := pick()
			removed[d] = true
			err = s.RemoveDocument(d)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if len(removed) == 0 {
		t.Fatal("the script removed nothing: the test no longer tests")
	}
	snap := s.Snapshot()
	for d := range NodeID(snap.NumNodes()) {
		for _, to := range snap.OutLinks(d) {
			if removed[d] || removed[to] {
				t.Fatalf("link %d -> %d touches a removed document", d, to)
			}
		}
	}
	ref, err := CentralizedPageRank(snap, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for d, want := range ref {
		if got := s.Ranks()[d]; !removed[NodeID(d)] && math.Abs(got-want) > 1e-6 {
			t.Fatalf("rank[%d]: session %v vs centralized %v", d, got, want)
		}
	}
}
