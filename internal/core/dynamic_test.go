package core

import (
	"math"
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

func TestAttachDocumentReceivesLinksLater(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 151))
	e, m, _ := dynSetup(t, g, 10, Options{Epsilon: 1e-9}, 1)
	if res := e.Run(); !res.Converged {
		t.Fatal("initial convergence failed")
	}

	// A new document appears, linking to docs 1 and 2.
	id, err := m.AddNode([]graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachDocument(id, 3); err != nil {
		t.Fatal(err)
	}
	if res := e.Run(); !res.Converged {
		t.Fatal("post-attach convergence failed")
	}
	// The new doc has no in-links yet: rank = 1-d.
	if math.Abs(e.Ranks()[id]-(1-DefaultDamping)) > 1e-9 {
		t.Fatalf("new doc rank %v, want 1-d", e.Ranks()[id])
	}

	// Now an existing document is edited to link to the new one.
	old := append([]graph.NodeID(nil), m.OutLinks(0)...)
	if _, err := m.AddLink(0, id); err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateOutlinks(0, old); err != nil {
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

func TestAttachDocumentValidation(t *testing.T) {
	g := graph.Cycle(4)
	e, m, _ := dynSetup(t, g, 2, Options{}, 2)
	e.Run()
	// Attach without topology mutation: rejected.
	if err := e.AttachDocument(4, 0); err == nil {
		t.Fatal("attached a document missing from the topology")
	}
	// Out-of-order attach rejected.
	if _, err := m.AddNode(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddNode(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachDocument(5, 0); err == nil {
		t.Fatal("attached out of order")
	}
	if err := e.AttachDocument(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachDocument(5, 0); err != nil {
		t.Fatal(err)
	}
	// Teleport engines cannot grow.
	tp := make([]float64, 4)
	tp[0] = 1
	g2 := graph.Cycle(4)
	m2 := graph.NewMutable(g2)
	net2 := p2p.NewNetwork(2)
	net2.AssignRandom(g2, rng.New(3))
	e2, err := NewPassEngine(m2, net2, nil, Options{Teleport: tp})
	if err != nil {
		t.Fatal(err)
	}
	e2.Run()
	if _, err := m2.AddNode(nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.AttachDocument(4, 0); err == nil {
		t.Fatal("teleport engine grew")
	}
}

func TestUpdateOutlinksAddAndRemove(t *testing.T) {
	// Chain 0 -> 1 -> 2, then rewire 0 to point at 2 instead of 1.
	g := graph.FromAdjacency([][]graph.NodeID{{1}, {2}, {}})
	e, m, _ := dynSetup(t, g, 2, Options{Epsilon: 1e-10}, 4)
	e.Run()

	old := append([]graph.NodeID(nil), m.OutLinks(0)...)
	if _, err := m.AddLink(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RemoveLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateOutlinks(0, old); err != nil {
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

func TestUpdateOutlinksValidation(t *testing.T) {
	g := graph.Cycle(3)
	e, _, _ := dynSetup(t, g, 2, Options{}, 5)
	e.Run()
	if err := e.UpdateOutlinks(99, nil); err == nil {
		t.Fatal("accepted out-of-range doc")
	}
	if err := e.RemoveDoc(1); err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateOutlinks(1, nil); err == nil {
		t.Fatal("accepted removed doc")
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
				id, err := m.AddNode([]graph.NodeID{graph.NodeID(r.Intn(n))})
				if err != nil {
					return false
				}
				if err := e.AttachDocument(id, p2p.PeerID(r.Intn(4))); err != nil {
					return false
				}
			case 1:
				from, to := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
				if from == to || e.Removed(from) {
					continue
				}
				old := append([]graph.NodeID(nil), m.OutLinks(from)...)
				changed, err := m.AddLink(from, to)
				if err != nil {
					return false
				}
				if changed {
					if err := e.UpdateOutlinks(from, old); err != nil {
						return false
					}
				}
			case 2:
				from := graph.NodeID(r.Intn(n))
				if e.Removed(from) || m.OutDegree(from) == 0 {
					continue
				}
				old := append([]graph.NodeID(nil), m.OutLinks(from)...)
				to := old[r.Intn(len(old))]
				if _, err := m.RemoveLink(from, to); err != nil {
					return false
				}
				if err := e.UpdateOutlinks(from, old); err != nil {
					return false
				}
			}
			if !e.Run().Converged {
				return false
			}
		}
		// Compare against the solver, skipping removed docs (none are
		// removed in this property, but keep it robust).
		ref, err := solver.Power(m.Snapshot(), solver.Config{Tol: 1e-13})
		if err != nil || !ref.Converged {
			return false
		}
		for i := range ref.Ranks {
			if e.Removed(graph.NodeID(i)) {
				continue
			}
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
