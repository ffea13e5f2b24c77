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

func TestPeerThatNeverReturnsBlocksConvergence(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 91))
	net := p2p.NewNetwork(10)
	net.AssignRandom(g, rng.New(1))
	e, err := NewPassEngine(g, net, nil, Options{MaxPass: 50})
	if err != nil {
		t.Fatal(err)
	}
	net.SetOnline(0, false) // down before the computation starts, forever
	res := e.Run()
	if res.Converged {
		t.Fatal("claimed convergence with a permanently absent peer")
	}
	if res.Passes != 50 {
		t.Fatalf("ran %d passes, want MaxPass 50", res.Passes)
	}
	// Every update destined to the dead peer is preserved, not lost.
	if e.RetryQueueLen() == 0 {
		t.Fatal("no messages queued for the dead peer")
	}
	if res.Counters.Deferred == 0 {
		t.Fatal("no deferrals counted")
	}
	// The peer finally returns: the computation completes and the
	// result is exactly the reference.
	net.SetOnline(0, true)
	res2 := e.Run()
	if !res2.Converged {
		t.Fatal("did not converge after peer returned")
	}
	want := reference(t, g)
	// Default epsilon bounds the residual error.
	if err := maxRelErr(res2.Ranks, want); err > 0.05 {
		t.Fatalf("post-recovery error %v", err)
	}
}

func TestInterleavedChangesUnderChurn(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 92))
	m := graph.NewMutable(g)
	net := p2p.NewNetwork(20)
	net.AssignRandom(g, rng.New(2))
	churn, err := p2p.NewChurn(net, 0.7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPassEngine(m, net, churn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Run(); !res.Converged {
		t.Fatal("initial convergence failed")
	}
	// Interleave inserts, deletes and passes.
	attach(t, e, 3, 1, 2, 3)
	e.RunPass()
	if err := e.RemoveDocument(50); err != nil {
		t.Fatal(err)
	}
	e.RunPass()
	attach(t, e, 7, 100)
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not reconverge after interleaved changes")
	}
	if res.Ranks[50] != 0 {
		t.Fatal("deleted doc still ranked")
	}
	for i, r := range res.Ranks {
		if i != 50 && r < (1-DefaultDamping)-1e-9 {
			t.Fatalf("rank[%d] = %v below floor", i, r)
		}
	}
}

func TestChurnEveryPassStillMatchesReference(t *testing.T) {
	// Extreme churn (30% availability) with a tight threshold still
	// lands on the solver's fixed point.
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(600, 93))
	net := p2p.NewNetwork(30)
	net.AssignRandom(g, rng.New(4))
	churn, err := p2p.NewChurn(net, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPassEngine(g, net, churn, Options{Epsilon: 1e-9, MaxPass: 50000})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge at 30% availability")
	}
	want := reference(t, g)
	if err := maxRelErr(res.Ranks, want); err > 1e-5 {
		t.Fatalf("extreme-churn error %v", err)
	}
}

// Property: for random graphs, peer counts and thresholds, the engine
// converges and its worst-case relative error is proportional to the
// threshold.
func TestEngineAccuracyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(300)
		g, err := graph.GeneratePowerLaw(graph.DefaultPowerLawConfig(n, seed))
		if err != nil {
			return false
		}
		peers := 1 + r.Intn(20)
		epsChoices := []float64{1e-2, 1e-4, 1e-6}
		eps := epsChoices[r.Intn(len(epsChoices))]
		net := p2p.NewNetwork(peers)
		net.AssignRandom(g, r)
		e, err := NewPassEngine(g, net, nil, Options{Epsilon: eps})
		if err != nil {
			return false
		}
		res := e.Run()
		if !res.Converged {
			return false
		}
		ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
		if err != nil || !ref.Converged {
			return false
		}
		worst := maxRelErrSlices(res.Ranks, ref.Ranks)
		// Error scales with eps; 100x slack covers mass amplification
		// through 1/(1-d) and accumulation across in-links.
		return worst <= 100*eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func maxRelErrSlices(got, want []float64) float64 {
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

// Property: rank mass is conserved under churn — deferred messages are
// eventually delivered, never dropped, for any availability level.
func TestNoMassLossUnderChurnProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50 + r.Intn(200)
		g := graph.Random(n, 2, seed) // uniform out-degree 2: rank sum == n at fixpoint
		peers := 2 + r.Intn(10)
		avail := 0.4 + 0.6*r.Float64()
		net := p2p.NewNetwork(peers)
		net.AssignRandom(g, r)
		churn, err := p2p.NewChurn(net, avail, rng.New(r.Uint64()))
		if err != nil {
			return false
		}
		e, err := NewPassEngine(g, net, churn, Options{Epsilon: 1e-8, MaxPass: 100000})
		if err != nil {
			return false
		}
		res := e.Run()
		if !res.Converged {
			return false
		}
		if res.Counters.Deferred != res.Counters.Redelivered {
			return false // a message vanished
		}
		sum := 0.0
		for _, v := range res.Ranks {
			sum += v
		}
		return math.Abs(sum-float64(n)) < 1e-3*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
