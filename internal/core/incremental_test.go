package core

import (
	"math"
	"slices"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

// figure2Graph builds the exact example of the paper's Figure 2:
// G links to H, I, J; H links to K, L.
// Node ids: G=0 H=1 I=2 J=3 K=4 L=5, plus M=6 (isolated, as drawn).
func figure2Graph() *graph.Graph {
	return graph.FromAdjacency([][]graph.NodeID{
		{1, 2, 3}, // G -> H, I, J
		{4, 5},    // H -> K, L
		{}, {}, {}, {}, {},
	})
}

func TestFigure2Propagation(t *testing.T) {
	g := figure2Graph()
	// The figure traces increments without damping: G's increment to H
	// is 1/3, H's to K and L is 1/6.
	res := MeasureInsertPropagation(g, 0, 1.0, 1.0, 0.2)
	// Hop 1: G sends 1/3 to H, I, J (3 messages).
	// Hop 2: H's 1/3 > 0.2, so H sends 1/6 to K and L (2 messages).
	// Hop 3: K and L hold 1/6 < 0.2 — silence.
	if res.Messages != 5 {
		t.Fatalf("messages = %d, want 5", res.Messages)
	}
	if res.PathLength != 2 {
		t.Fatalf("path length = %d, want 2", res.PathLength)
	}
	if res.Coverage != 5 {
		t.Fatalf("coverage = %d, want 5 (H,I,J,K,L)", res.Coverage)
	}
}

func TestFigure2TighterThresholdGoesDeeper(t *testing.T) {
	g := figure2Graph()
	res := MeasureInsertPropagation(g, 0, 1.0, 1.0, 0.1)
	// Now K and L (1/6 > 0.1) would forward, but they have no
	// out-links, so message count rises only if the graph continues.
	if res.Messages != 5 || res.PathLength != 2 {
		t.Fatalf("unexpected: %+v", res)
	}
	// Extend the chain: K -> M.
	g2 := graph.FromAdjacency([][]graph.NodeID{
		{1, 2, 3}, {4, 5}, {}, {}, {6}, {}, {},
	})
	res2 := MeasureInsertPropagation(g2, 0, 1.0, 1.0, 0.1)
	if res2.PathLength != 3 || res2.Messages != 6 || res2.Coverage != 6 {
		t.Fatalf("extended chain: %+v", res2)
	}
}

func TestPropagationThresholdMonotonicity(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(5000, 31))
	r := rng.New(9)
	starts := make([]graph.NodeID, 30)
	for i := range starts {
		starts[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	prevPath, prevCov := 0.0, 0.0
	for _, eps := range []float64{0.2, 1e-1, 1e-2, 1e-3} {
		var path, cov float64
		for _, s := range starts {
			res := MeasureInsertPropagation(g, s, InitialRank, DefaultDamping, eps)
			path += float64(res.PathLength)
			cov += float64(res.Coverage)
		}
		path /= float64(len(starts))
		cov /= float64(len(starts))
		if path < prevPath {
			t.Fatalf("eps=%v shortened average path: %v < %v", eps, path, prevPath)
		}
		if cov < prevCov {
			t.Fatalf("eps=%v shrank average coverage: %v < %v", eps, cov, prevCov)
		}
		prevPath, prevCov = path, cov
	}
	// Path lengths stay bounded even at tight thresholds. Damping caps
	// any propagation at log(eps)/log(0.85) ~ 43 hops; chains of
	// degree-1 neighborhood links (the generator's locality component)
	// can approach that bound, unlike pure global-popularity graphs
	// where increments quickly reach high-out-degree hubs and split
	// below threshold (the paper reports ~9-15 for its graphs).
	if prevPath > 45 {
		t.Fatalf("average path length %v at eps=1e-3 exceeds the damping-decay bound", prevPath)
	}
}

func TestPropagationTerminatesOnCycle(t *testing.T) {
	// outdeg-1 cycle: increments decay only via damping.
	g := graph.Cycle(5)
	res := MeasureInsertPropagation(g, 0, 1.0, DefaultDamping, 1e-3)
	// 0.85^k < 1e-3 at k=43.
	if res.PathLength < 30 || res.PathLength > 60 {
		t.Fatalf("cycle path length = %d, want ~43", res.PathLength)
	}
	if res.Coverage != 5 {
		t.Fatalf("cycle coverage = %d", res.Coverage)
	}
}

func TestPropagationValidation(t *testing.T) {
	g := graph.Cycle(3)
	for _, f := range []func(){
		func() { MeasureInsertPropagation(g, 0, 1, 0, 0.1) },
		func() { MeasureInsertPropagation(g, 0, 1, 1.5, 0.1) },
		func() { MeasureInsertPropagation(g, 0, 1, 0.85, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInsertDocRaisesTargetRanks(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 32))
	e, _, _ := dynSetup(t, g, 20, Options{Epsilon: 1e-8}, 13)
	res := e.Run()
	if !res.Converged {
		t.Fatal("initial run did not converge")
	}
	before := slices.Clone(res.Ranks)

	targets := []graph.NodeID{10, 20, 30}
	attach(t, e, 0, targets...)
	res2 := e.Run()
	if !res2.Converged {
		t.Fatal("did not reconverge after insert")
	}
	for _, d := range targets {
		if res2.Ranks[d] <= before[d] {
			t.Fatalf("target %d rank did not rise: %v -> %v", d, before[d], res2.Ranks[d])
		}
		// Each target gains at least its direct share d*(1-d)/3,
		// ignoring second-order feedback through loops.
		minGain := DefaultDamping * (1 - DefaultDamping) / 3 * 0.9
		if res2.Ranks[d]-before[d] < minGain {
			t.Fatalf("target %d gained %v, want >= %v", d, res2.Ranks[d]-before[d], minGain)
		}
	}
	// Untouched far-away docs move little but never drop below 1-d,
	// and the new document, with no in-links, sits at it.
	for i, r := range res2.Ranks {
		if r < (1-DefaultDamping)-1e-9 {
			t.Fatalf("rank[%d] = %v fell below floor after insert", i, r)
		}
	}
}

// attach inserts a document linking to targets into e on peer.
func attach(t testing.TB, e *PassEngine, peer p2p.PeerID, targets ...graph.NodeID) graph.NodeID {
	t.Helper()
	id, err := e.InsertDocument(targets, peer)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestInsertDocErrors(t *testing.T) {
	g := graph.Cycle(5)
	e, m, _ := dynSetup(t, g, 2, Options{}, 14)
	before := slices.Clone(e.Run().Ranks)
	// An out-link outside the topology is refused, and neither the
	// topology nor the engine gains the document.
	if _, err := e.InsertDocument([]graph.NodeID{99}, 0); err == nil {
		t.Fatal("accepted out-of-range out-link")
	}
	if m.NumNodes() != 5 || len(e.Ranks()) != 5 {
		t.Fatalf("a refused insert left %d documents and %d ranks", m.NumNodes(), len(e.Ranks()))
	}
	// A document with no out-links sends nothing: the others keep
	// their ranks bit for bit.
	id := attach(t, e, 0)
	res := e.Run()
	d := DefaultDamping // a variable: 1 - d in float64, as the engine computes it
	if !res.Converged || !slices.Equal(res.Ranks[:id], before) || res.Ranks[id] != 1-d {
		t.Fatalf("no-outlink insert moved ranks: %v -> %v", before, res.Ranks)
	}
}

func TestRemoveDocChain(t *testing.T) {
	// Chain 0 -> 1 -> 2. After removing 0:
	// r1 = 1-d, r2 = (1-d) + d(1-d).
	g := graph.FromAdjacency([][]graph.NodeID{{1}, {2}, {}})
	e, _, _ := dynSetup(t, g, 2, Options{Epsilon: 1e-10}, 15)
	res := e.Run()
	if !res.Converged {
		t.Fatal("initial run did not converge")
	}
	d := DefaultDamping
	if math.Abs(res.Ranks[2]-((1-d)+d*((1-d)+d*(1-d)))) > 1e-6 {
		t.Fatalf("pre-delete rank[2] = %v", res.Ranks[2])
	}
	if err := e.RemoveDocument(0); err != nil {
		t.Fatal(err)
	}
	res2 := e.Run()
	if !res2.Converged {
		t.Fatal("did not reconverge after delete")
	}
	if res2.Ranks[0] != 0 {
		t.Fatalf("removed doc rank = %v", res2.Ranks[0])
	}
	if math.Abs(res2.Ranks[1]-(1-d)) > 1e-6 {
		t.Fatalf("rank[1] after delete = %v, want %v", res2.Ranks[1], 1-d)
	}
	want2 := (1 - d) + d*(1-d)
	if math.Abs(res2.Ranks[2]-want2) > 1e-6 {
		t.Fatalf("rank[2] after delete = %v, want %v", res2.Ranks[2], want2)
	}
}

func TestRemoveDocStopsReceiving(t *testing.T) {
	g := graph.Cycle(6)
	e, m, _ := dynSetup(t, g, 3, Options{Epsilon: 1e-10}, 16)
	e.Run()
	if err := e.RemoveDocument(3); err != nil {
		t.Fatal(err)
	}
	if !e.removed[3] {
		t.Fatal("not flagged removed after removal")
	}
	if m.OutDegree(2) != 0 || m.OutDegree(3) != 0 {
		t.Fatalf("links left: 2 -> %v, 3 -> %v", m.OutLinks(2), m.OutLinks(3))
	}
	if err := e.RemoveDocument(3); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := e.RemoveDocument(99); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if err := e.RemoveDocument(-1); err == nil {
		t.Fatal("negative removal accepted")
	}
	res := e.Run()
	if res.Ranks[3] != 0 {
		t.Fatalf("removed doc regained rank %v", res.Ranks[3])
	}
	// Its successor no longer receives 3's contribution.
	d := DefaultDamping
	if res.Ranks[4] > (1-d)+1e-6 {
		t.Fatalf("rank[4] = %v still includes deleted doc's mass", res.Ranks[4])
	}
}

func TestInsertThenRemoveRestoresRanks(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 33))
	e, _, _ := dynSetup(t, g, 10, Options{Epsilon: 1e-10}, 17)
	before := slices.Clone(e.Run().Ranks)

	// Insert a doc, converge, then remove it: RemoveDocument retracts
	// everything it sent.
	id := attach(t, e, 0, 1, 2)
	e.Run()
	if err := e.RemoveDocument(id); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not reconverge")
	}
	for i := range before {
		if math.Abs(res.Ranks[i]-before[i]) > 1e-6 {
			t.Fatalf("rank[%d] not restored: %v vs %v", i, res.Ranks[i], before[i])
		}
	}
}
