package core

import (
	"math"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

func TestTeleportUniformEqualsDefault(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 51))
	uniform := make([]float64, g.NumNodes())
	for i := range uniform {
		uniform[i] = 1
	}
	plain, _ := setup(t, g, 10, Options{Epsilon: 1e-10}, 1)
	pres := plain.Run()
	pers, _ := setup(t, g, 10, Options{Epsilon: 1e-10, Teleport: uniform}, 1)
	tres := pers.Run()
	for i := range pres.Ranks {
		if math.Abs(pres.Ranks[i]-tres.Ranks[i]) > 1e-9 {
			t.Fatalf("uniform teleport diverged at %d: %v vs %v", i, pres.Ranks[i], tres.Ranks[i])
		}
	}
}

func TestTeleportMatchesSolver(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1200, 52))
	r := rng.New(3)
	tp := make([]float64, g.NumNodes())
	for i := range tp {
		tp[i] = r.Float64() + 0.1
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13, Teleport: tp})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := setup(t, g, 25, Options{Epsilon: 1e-9, Teleport: tp}, 2)
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := maxRelErr(res.Ranks, ref.Ranks); err > 1e-5 {
		t.Fatalf("teleport engine vs solver: %v", err)
	}
}

func TestTeleportConcentratedBoostsTopic(t *testing.T) {
	// Chain 0 -> 1 -> 2 with all teleport mass on 0: node 0 dominates.
	g := graph.FromAdjacency([][]graph.NodeID{{1}, {2}, {}})
	tp := []float64{1, 0, 0}
	e, _ := setup(t, g, 2, Options{Epsilon: 1e-10, Teleport: tp}, 3)
	res := e.Run()
	d := DefaultDamping
	// base0 = (1-d)*3, base1 = base2 = 0.
	want0 := (1 - d) * 3
	want1 := d * want0
	want2 := d * want1
	for i, want := range []float64{want0, want1, want2} {
		if math.Abs(res.Ranks[i]-want) > 1e-8 {
			t.Fatalf("rank[%d] = %v, want %v", i, res.Ranks[i], want)
		}
	}
}

func TestTeleportTimedEngine(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(600, 53))
	tp := make([]float64, g.NumNodes())
	for i := range tp {
		tp[i] = float64(i%5) + 1
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13, Teleport: tp})
	if err != nil {
		t.Fatal(err)
	}
	res := runTimed(t, g, 8, TimedOptions{Options: Options{Epsilon: 1e-9, Teleport: tp}}, 4)
	if err := maxRelErr(res.Ranks, ref.Ranks); err > 1e-5 {
		t.Fatalf("timed teleport vs solver: %v", err)
	}
}

func TestTeleportValidation(t *testing.T) {
	g := graph.Cycle(4)
	net := p2p.NewNetwork(2)
	net.AssignRandom(g, rng.New(1))
	cases := []Options{
		{Teleport: []float64{1, 2}},                // wrong length
		{Teleport: []float64{0, 0, 0, 0}},          // zero sum
		{Teleport: []float64{1, -1, 1, 1}},         // negative
		{Teleport: []float64{1, math.NaN(), 1, 1}}, // NaN
	}
	for i, opt := range cases {
		if _, err := NewPassEngine(g, net, nil, opt); err == nil {
			t.Errorf("case %d accepted %+v", i, opt)
		}
		if _, err := NewRankers(g, net, opt, 0); err == nil {
			t.Errorf("case %d (rankers) accepted %+v", i, opt)
		}
	}
}

func TestEngineWithRouterCountsHops(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 54))
	run := func(cached bool) p2p.Counters {
		net := p2p.NewNetwork(64)
		net.AssignRandom(g, rng.New(5))
		e, err := NewPassEngine(g, net, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		router, err := p2p.NewCachedRouter(64, cached)
		if err != nil {
			t.Fatal(err)
		}
		e.Router = router
		e.Run()
		return e.Counters()
	}
	withCache := run(true)
	without := run(false)
	if withCache.RoutedHops == 0 || without.RoutedHops == 0 {
		t.Fatal("no hops recorded")
	}
	// Same message counts (routing is orthogonal to the algorithm)...
	if withCache.InterPeerMsgs != without.InterPeerMsgs {
		t.Fatalf("message counts differ: %d vs %d",
			withCache.InterPeerMsgs, without.InterPeerMsgs)
	}
	// ...but caching cuts total hops substantially (section 3.2).
	if float64(withCache.RoutedHops) > 0.8*float64(without.RoutedHops) {
		t.Fatalf("IP caching saved too little: %d vs %d hops",
			withCache.RoutedHops, without.RoutedHops)
	}
	if withCache.HopsPerMessage() >= without.HopsPerMessage() {
		t.Fatal("hops per message not reduced by caching")
	}
}
