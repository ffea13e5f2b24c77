package core

import (
	"math"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// setup builds a graph, a peer network with random placement, and an
// engine over them.
func setup(t testing.TB, g *graph.Graph, peers int, opt Options, seed uint64) (*PassEngine, *p2p.Network) {
	t.Helper()
	net := p2p.NewNetwork(peers)
	net.AssignRandom(g, rng.New(seed))
	e, err := NewPassEngine(g, net, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e, net
}

// reference computes tightly converged centralized ranks.
func reference(t testing.TB, g *graph.Graph) []float64 {
	t.Helper()
	res, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ranks
}

func maxRelErr(got, want []float64) float64 {
	worst := 0.0
	for i := range got {
		denom := math.Abs(want[i])
		if denom == 0 {
			denom = 1
		}
		if e := math.Abs(got[i]-want[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst
}

func TestPassEngineCycleUniform(t *testing.T) {
	g := graph.Cycle(20)
	e, _ := setup(t, g, 4, Options{Epsilon: 1e-10}, 1)
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i, r := range res.Ranks {
		if math.Abs(r-1) > 1e-6 {
			t.Fatalf("rank[%d] = %v, want 1", i, r)
		}
	}
}

func TestPassEngineMatchesSolver(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(3000, 11))
	want := reference(t, g)
	e, _ := setup(t, g, 100, Options{Epsilon: 1e-9}, 2)
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := maxRelErr(res.Ranks, want); err > 1e-5 {
		t.Fatalf("max relative error vs solver = %v", err)
	}
}

func TestPassEngineFirstPassSendsAllLinks(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 3))
	e, _ := setup(t, g, 10, Options{}, 4)
	stats := e.RunPass()
	if stats.InterMsgs+stats.IntraMsgs != g.NumEdges() {
		t.Fatalf("pass 1 sent %d messages, want one per edge (%d)",
			stats.InterMsgs+stats.IntraMsgs, g.NumEdges())
	}
}

func TestPassEngineEpsilonTradeoff(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(2000, 12))
	want := reference(t, g)
	var prevMsgs int64 = -1
	var prevErr = -1.0
	for _, eps := range []float64{0.2, 1e-2, 1e-4, 1e-6} {
		e, _ := setup(t, g, 50, Options{Epsilon: eps}, 5)
		res := e.Run()
		if !res.Converged {
			t.Fatalf("eps=%v did not converge", eps)
		}
		msgs := res.Counters.InterPeerMsgs
		err := maxRelErr(res.Ranks, want)
		if prevMsgs >= 0 && msgs < prevMsgs {
			t.Fatalf("smaller eps produced fewer messages: %d < %d", msgs, prevMsgs)
		}
		if prevErr >= 0 && err > prevErr+1e-12 && err > 10*prevErr {
			t.Fatalf("smaller eps much less accurate: %v vs %v", err, prevErr)
		}
		prevMsgs, prevErr = msgs, err
	}
	// At the tightest threshold the answer is essentially exact.
	if prevErr > 1e-4 {
		t.Fatalf("eps=1e-6 error %v too large", prevErr)
	}
}

func TestPassEngineTable2Shape(t *testing.T) {
	// At the paper's recommended eps=1e-3 the bulk of documents are
	// within 1% of the true ranks (section 4.8).
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(5000, 13))
	want := reference(t, g)
	e, _ := setup(t, g, 500, Options{Epsilon: 1e-3}, 6)
	res := e.Run()
	within := 0
	for i := range res.Ranks {
		if math.Abs(res.Ranks[i]-want[i])/want[i] <= 0.01 {
			within++
		}
	}
	if frac := float64(within) / float64(len(want)); frac < 0.95 {
		t.Fatalf("only %.1f%% of docs within 1%% at eps=1e-3", frac*100)
	}
}

func TestPassEngineDeterministic(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 14))
	run := func() Result {
		e, _ := setup(t, g, 20, Options{}, 7)
		return e.Run()
	}
	a, b := run(), run()
	if a.Passes != b.Passes || a.Counters.InterPeerMsgs != b.Counters.InterPeerMsgs {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Counters, b.Counters)
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("rank[%d] differs between identical runs", i)
		}
	}
}

func TestPassEngineOnPassEarlyStop(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 15))
	e, _ := setup(t, g, 20, Options{Epsilon: 1e-8}, 8)
	calls := 0
	e.OnPass = func(s PassStats) bool {
		calls++
		return calls < 3
	}
	res := e.Run()
	if res.Passes != 3 || calls != 3 {
		t.Fatalf("early stop: passes=%d calls=%d", res.Passes, calls)
	}
	if res.Converged {
		t.Fatal("claimed convergence after forced stop")
	}
}

func TestPassEngineMaxPass(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 16))
	e, _ := setup(t, g, 20, Options{Epsilon: 1e-12, MaxPass: 2}, 9)
	res := e.Run()
	if res.Passes != 2 || res.Converged {
		t.Fatalf("MaxPass: passes=%d converged=%v", res.Passes, res.Converged)
	}
}

func TestPassEngineAbsoluteMode(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 17))
	want := reference(t, g)
	e, _ := setup(t, g, 20, Options{Epsilon: 1e-8, Absolute: true}, 10)
	res := e.Run()
	if !res.Converged {
		t.Fatal("absolute mode did not converge")
	}
	if err := maxRelErr(res.Ranks, want); err > 1e-4 {
		t.Fatalf("absolute mode error %v", err)
	}
}

func TestPassEngineOptionsValidation(t *testing.T) {
	g := graph.Cycle(4)
	net := p2p.NewNetwork(2)
	net.AssignRandom(g, rng.New(1))
	bad := []Options{
		{Damping: 2},
		{Damping: -1},
		{Epsilon: -0.5},
		{MaxPass: -2},
	}
	for i, opt := range bad {
		if _, err := NewPassEngine(g, net, nil, opt); err == nil {
			t.Errorf("case %d accepted %+v", i, opt)
		}
	}
	// Unplaced documents are rejected.
	empty := p2p.NewNetwork(2)
	if _, err := NewPassEngine(g, empty, nil, Options{}); err == nil {
		t.Error("accepted network with unplaced documents")
	}
}

func TestPassEngineSinglePeerAllIntra(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 18))
	e, _ := setup(t, g, 1, Options{}, 11)
	res := e.Run()
	if res.Counters.InterPeerMsgs != 0 {
		t.Fatalf("single peer produced %d network messages", res.Counters.InterPeerMsgs)
	}
	if res.Counters.IntraPeerMsgs == 0 {
		t.Fatal("no intra-peer updates at all")
	}
}

func TestPassEngineRanksLowerBounded(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(2000, 19))
	e, _ := setup(t, g, 50, Options{}, 12)
	res := e.Run()
	for i, r := range res.Ranks {
		if r < (1-DefaultDamping)-1e-9 {
			t.Fatalf("rank[%d] = %v below 1-d", i, r)
		}
	}
}

func BenchmarkPassEngine10k(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 1))
	for i := 0; i < b.N; i++ {
		net := p2p.NewNetwork(500)
		net.AssignRandom(g, rng.New(1))
		e, err := NewPassEngine(g, net, nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		e.Run()
	}
}
