package core

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// dynSetup builds an engine over a mutable copy of g.
func dynSetup(t testing.TB, g *graph.Graph, peers int, opt Options, seed uint64) (*PassEngine, *graph.Mutable, *p2p.Network) {
	t.Helper()
	m := graph.NewMutable(g)
	net := p2p.NewNetwork(peers)
	net.AssignRandom(g, rng.New(seed))
	e, err := NewPassEngine(m, net, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e, m, net
}

// solveSnapshot runs the centralized solver on the mutable topology's
// current snapshot.
func solveSnapshot(t testing.TB, m *graph.Mutable) []float64 {
	t.Helper()
	res, err := solver.Power(m.Snapshot(), solver.Config{Tol: 1e-13})
	if err != nil || !res.Converged {
		t.Fatalf("snapshot solver: %v", err)
	}
	return res.Ranks
}

// withLink returns a copy of d's out-links with t added.
func withLink(m *graph.Mutable, d, t graph.NodeID) []graph.NodeID {
	return append(slices.Clone(m.OutLinks(d)), t)
}

func TestInsertDocumentReceivesLinksLater(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 151))
	e, m, _ := dynSetup(t, g, 10, Options{Epsilon: 1e-9}, 1)
	if res := e.Run(); !res.Converged {
		t.Fatal("initial convergence failed")
	}

	// A new document appears, linking to docs 1 and 2.
	id, err := e.InsertDocument([]graph.NodeID{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Run(); !res.Converged {
		t.Fatal("post-insert convergence failed")
	}
	// The new doc has no in-links yet: rank = 1-d.
	if math.Abs(e.Ranks()[id]-(1-DefaultDamping)) > 1e-9 {
		t.Fatalf("new doc rank %v, want 1-d", e.Ranks()[id])
	}

	// Now an existing document is edited to link to the new one.
	if err := e.SetOutLinks(0, withLink(m, 0, id)); err != nil {
		t.Fatal(err)
	}
	if res := e.Run(); !res.Converged {
		t.Fatal("post-link convergence failed")
	}
	if e.Ranks()[id] <= 1-DefaultDamping {
		t.Fatalf("new doc rank %v did not rise after gaining an in-link", e.Ranks()[id])
	}

	// Full agreement with the centralized solver on the final topology.
	want := solveSnapshot(t, m)
	if err := maxRelErr(e.Ranks(), want); err > 1e-5 {
		t.Fatalf("dynamic ranks off by %v", err)
	}
}

// A refused insert changes nothing; the ids of accepted ones follow
// the topology.
func TestInsertDocumentValidation(t *testing.T) {
	g := graph.Cycle(4)
	e, m, _ := dynSetup(t, g, 2, Options{}, 2)
	e.Run()
	for _, bad := range []struct {
		links []graph.NodeID
		peer  p2p.PeerID
	}{
		{[]graph.NodeID{4}, 0},  // its own id: a self-link
		{[]graph.NodeID{99}, 0}, // outside the topology
		{[]graph.NodeID{-1}, 0},
		{nil, -1}, // outside the network
		{nil, 2},
	} {
		if _, err := e.InsertDocument(bad.links, bad.peer); err == nil {
			t.Fatalf("inserted a document linking to %v on peer %d", bad.links, bad.peer)
		}
		if m.NumNodes() != 4 || len(e.Ranks()) != 4 {
			t.Fatalf("a refused insert left %d documents and %d ranks", m.NumNodes(), len(e.Ranks()))
		}
	}
	for want := graph.NodeID(4); want < 6; want++ {
		if id, err := e.InsertDocument(nil, 0); err != nil || id != want {
			t.Fatalf("insert: id %d, %v; want %d", id, err, want)
		}
	}
	// Teleport engines cannot grow.
	tp := make([]float64, 4)
	tp[0] = 1
	e2, m2, _ := dynSetup(t, g, 2, Options{Teleport: tp}, 3)
	e2.Run()
	if _, err := e2.InsertDocument(nil, 0); err == nil || m2.NumNodes() != 4 {
		t.Fatal("teleport engine grew")
	}
	// Nor can an engine over a static graph be edited.
	e3, _ := setup(t, g, 2, Options{}, 3)
	if _, err := e3.InsertDocument(nil, 0); err == nil {
		t.Fatal("inserted into a static graph")
	}
	if err := e3.SetOutLinks(0, nil); err == nil {
		t.Fatal("relinked a static graph")
	}
	if err := e3.RemoveDocument(0); err == nil {
		t.Fatal("removed from a static graph")
	}
}

func TestSetOutLinksAddAndRemove(t *testing.T) {
	// Chain 0 -> 1 -> 2, then rewire 0 to point at 2 instead of 1.
	g := graph.FromAdjacency([][]graph.NodeID{{1}, {2}, {}})
	e, m, _ := dynSetup(t, g, 2, Options{Epsilon: 1e-10}, 4)
	e.Run()

	if err := e.SetOutLinks(0, []graph.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not reconverge after rewiring")
	}
	want := solveSnapshot(t, m)
	for i := range want {
		if math.Abs(res.Ranks[i]-want[i]) > 1e-6 {
			t.Fatalf("rank[%d] = %v, want %v", i, res.Ranks[i], want[i])
		}
	}
	// Analytically: 1 now has no in-links (rank 1-d), 2 gains 0's mass.
	d := DefaultDamping
	if math.Abs(res.Ranks[1]-(1-d)) > 1e-6 {
		t.Fatalf("rank[1] = %v, want %v", res.Ranks[1], 1-d)
	}
}

func TestSetOutLinksValidation(t *testing.T) {
	g := graph.Cycle(3)
	e, m, _ := dynSetup(t, g, 2, Options{}, 5)
	e.Run()
	if err := e.SetOutLinks(99, nil); err == nil {
		t.Fatal("accepted out-of-range doc")
	}
	if err := e.SetOutLinks(0, []graph.NodeID{0}); err == nil {
		t.Fatal("accepted a self-link")
	}
	if err := e.RemoveDocument(1); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOutLinks(1, nil); err == nil {
		t.Fatal("accepted removed doc")
	}
	if err := e.SetOutLinks(2, []graph.NodeID{0, 1}); err == nil {
		t.Fatal("linked to a removed doc")
	}
	if _, err := e.InsertDocument([]graph.NodeID{1}, 0); err == nil {
		t.Fatal("inserted a doc linking to a removed doc")
	}
	if !slices.Equal(m.OutLinks(2), []graph.NodeID{0}) || m.NumNodes() != 3 {
		t.Fatalf("refused edits changed the topology: 2 -> %v, %d docs", m.OutLinks(2), m.NumNodes())
	}
	if err := e.RemoveDocument(1); err == nil {
		t.Fatal("double removal accepted")
	}
}

// §3.1 deletes a document's row and its column: the documents linking
// to it stop counting it in their out-degree.
func TestRemoveDocumentTakesItsColumn(t *testing.T) {
	g := graph.FromAdjacency([][]graph.NodeID{{1, 2}, {0}, {0}})
	e, m, _ := dynSetup(t, g, 2, Options{Epsilon: 1e-12}, 6)
	e.Run()
	if err := e.RemoveDocument(2); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not reconverge after the removal")
	}
	// 0 <-> 1 is all that is left: both sit at 1.
	for d := range 2 {
		if math.Abs(res.Ranks[d]-1) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want 1", d, res.Ranks[d])
		}
	}
	if res.Ranks[2] != 0 || !slices.Equal(m.OutLinks(0), []graph.NodeID{1}) || m.OutDegree(2) != 0 {
		t.Fatalf("rank[2] = %v, 0 -> %v, 2 -> %v", res.Ranks[2], m.OutLinks(0), m.OutLinks(2))
	}
}

// A seeded script of inserts, relinks and removals without churn: the
// mass ledger balances after every edit and every pass run after it,
// no link touches a removed document, and the live ranks match the
// centralized solver on the edited topology.
func TestEditScriptKeepsMassAndMatchesSolver(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(300, 152))
	e, m, _ := dynSetup(t, g, 6, Options{Epsilon: 1e-10}, 7)
	r := rng.New(8)
	balanced := func(step string) {
		t.Helper()
		folded, shipped := e.MassBalance()
		if math.Abs(folded-shipped) > 1e-9*shipped {
			t.Fatalf("%s: folded %v, shipped %v", step, folded, shipped)
		}
	}
	e.Run()
	removals := 0
	for op := range 60 {
		n := m.NumNodes()
		pick := func() graph.NodeID { // a live document
			for {
				if d := graph.NodeID(r.Intn(n)); !e.removed[d] {
					return d
				}
			}
		}
		var err error
		switch r.Intn(4) {
		case 0:
			_, err = e.InsertDocument([]graph.NodeID{pick(), pick()}, p2p.PeerID(r.Intn(6)))
		case 1:
			from, to := pick(), pick()
			if from == to {
				continue
			}
			err = e.SetOutLinks(from, withLink(m, from, to))
		case 2:
			from := pick()
			links := slices.Clone(m.OutLinks(from))
			if len(links) > 0 {
				i := r.Intn(len(links))
				links = slices.Delete(links, i, i+1)
			}
			err = e.SetOutLinks(from, links)
		case 3:
			removals++
			err = e.RemoveDocument(pick())
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		balanced("after the edit")
		for !e.Converged() {
			e.RunPass()
			balanced("after a pass")
		}
	}
	if removals == 0 {
		t.Fatal("the script removed nothing: the test no longer tests")
	}
	snap := m.Snapshot()
	for d := range graph.NodeID(snap.NumNodes()) {
		for _, t2 := range snap.OutLinks(d) {
			if e.removed[d] || e.removed[t2] {
				t.Fatalf("link %d -> %d touches a removed document", d, t2)
			}
		}
	}
	want := solveSnapshot(t, m)
	for d, got := range e.Ranks() {
		if !e.removed[d] && math.Abs(got-want[d]) > 1e-6 {
			t.Fatalf("rank[%d] = %v, solver %v", d, got, want[d])
		}
	}
}

// Property: a topology built by random dynamic operations always ends
// with ranks matching the centralized solver on its snapshot.
func TestDynamicEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := graph.Random(30, 2, seed)
		m := graph.NewMutable(g)
		net := p2p.NewNetwork(4)
		net.AssignRandom(g, r)
		e, err := NewPassEngine(m, net, nil, Options{Epsilon: 1e-10})
		if err != nil {
			return false
		}
		if !e.Run().Converged {
			return false
		}
		for op := 0; op < 12; op++ {
			n := m.NumNodes()
			switch r.Intn(3) {
			case 0:
				if _, err := e.InsertDocument([]graph.NodeID{graph.NodeID(r.Intn(n))}, p2p.PeerID(r.Intn(4))); err != nil {
					return false
				}
			case 1:
				from, to := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
				if from == to {
					continue
				}
				if err := e.SetOutLinks(from, withLink(m, from, to)); err != nil {
					return false
				}
			case 2:
				from := graph.NodeID(r.Intn(n))
				if m.OutDegree(from) == 0 {
					continue
				}
				links := slices.Clone(m.OutLinks(from))
				i := r.Intn(len(links))
				if err := e.SetOutLinks(from, slices.Delete(links, i, i+1)); err != nil {
					return false
				}
			}
			if !e.Run().Converged {
				return false
			}
		}
		ref, err := solver.Power(m.Snapshot(), solver.Config{Tol: 1e-13})
		if err != nil || !ref.Converged {
			return false
		}
		for i := range ref.Ranks {
			denom := math.Abs(ref.Ranks[i])
			if denom == 0 {
				denom = 1
			}
			if math.Abs(e.Ranks()[i]-ref.Ranks[i])/denom > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertsGrowPassScratchAmortized: each insert grows the engine by
// one document, and each worker's coalescing index must follow it
// amortized. N inserts, each re-converged as a Session does, may
// reallocate a worker's index O(log N) times, not once per insert; and
// the slots they add must read as unmarked, which the final agreement
// with the centralized solver checks.
func TestInsertsGrowPassScratchAmortized(t *testing.T) {
	const inserts = 400
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 8))
	e, m, _ := dynSetup(t, g, 8, Options{Epsilon: 1e-9, Workers: 2}, 3)
	if res := e.Run(); !res.Converged {
		t.Fatal("initial convergence failed")
	}
	r := rng.New(4)
	base := map[int]*uint64{} // worker -> its index's backing array
	reallocs := map[int]int{}
	for i := 0; i < inserts; i++ {
		links := []graph.NodeID{graph.NodeID(r.Intn(m.NumNodes())), graph.NodeID(r.Intn(m.NumNodes()))}
		if links[0] == links[1] {
			links = links[:1]
		}
		if _, err := e.InsertDocument(links, p2p.PeerID(r.Intn(8))); err != nil {
			t.Fatal(err)
		}
		if !e.Converged() {
			if res := e.Run(); !res.Converged {
				t.Fatalf("insert %d: no convergence", i)
			}
		}
		if n := len(e.pipe.scratch[0].mark); n < m.NumNodes() {
			t.Fatalf("insert %d: worker 0's index covers %d of %d documents", i, n, m.NumNodes())
		}
		for w, sc := range e.pipe.scratch {
			if p := &sc.mark[0]; base[w] != p {
				base[w] = p
				reallocs[w]++
			}
		}
	}
	if len(reallocs) == 0 {
		t.Fatal("no pass ran after an insert")
	}
	for w, n := range reallocs {
		if n > 2*bits.Len(inserts) {
			t.Fatalf("worker %d's index was reallocated %d times over %d inserts, want O(log N)", w, n, inserts)
		}
	}
	if err := maxRelErr(e.Ranks(), solveSnapshot(t, m)); err > 1e-5 {
		t.Fatalf("ranks after %d inserts off by %v", inserts, err)
	}
}
