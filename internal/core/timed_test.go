package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

func runTimed(t *testing.T, g *graph.Graph, peers int, topt TimedOptions, seed uint64) TimedResult {
	t.Helper()
	net := p2p.NewNetwork(peers)
	net.AssignRandom(g, rng.New(seed))
	e, err := NewTimedEngine(g, net, topt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimedEngineMatchesSolver(t *testing.T) {
	// The paper's operating point (eps=1e-3); tighter thresholds are
	// exercised in TestTimedEngineTightThreshold and
	// TestTimedEnginePinnedAccuracy.
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 111))
	want := reference(t, g)
	res := runTimed(t, g, 16, TimedOptions{Options: Options{Epsilon: 1e-3}}, 1)
	if err := maxRelErr(res.Ranks, want); err > 0.05 {
		t.Fatalf("timed engine error %v", err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if res.BytesSent == 0 || res.Batches == 0 || res.Events == 0 {
		t.Fatalf("missing stats: %+v", res)
	}
}

func TestTimedEngineTightThreshold(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(200, 117))
	want := reference(t, g)
	res := runTimed(t, g, 4, TimedOptions{Options: Options{Epsilon: 1e-7}}, 7)
	if err := maxRelErr(res.Ranks, want); err > 1e-4 {
		t.Fatalf("tight-threshold timed error %v", err)
	}
}

func TestTimedEngineDeterministic(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(600, 112))
	a := runTimed(t, g, 8, TimedOptions{}, 2)
	b := runTimed(t, g, 8, TimedOptions{}, 2)
	if a.SimulatedTime != b.SimulatedTime || a.BytesSent != b.BytesSent ||
		a.Events != b.Events {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("rank[%d] differs", i)
		}
	}
}

// TestTimedEnginePinned holds the simulation to recorded numbers: the
// event loop is deterministic, so any change to how a peer folds a
// batch, orders its pushes or sizes its frames moves at least one.
func TestTimedEnginePinned(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(3000, 5))
	teleport := make([]float64, g.NumNodes())
	for i := range teleport {
		teleport[i] = float64(1 + i%7)
	}
	for _, tc := range []struct {
		name                                        string
		opt                                         Options
		inter, intra, batches, bytes, events, simNS int64
		rankHash                                    string
	}{
		{"plain", Options{Epsilon: 1e-4},
			58141, 3685, 22742, 2850872, 43522, 17156040496, "162dff53c32d566e"},
		{"teleport", Options{Epsilon: 1e-4, Teleport: teleport},
			59168, 3703, 23766, 2941056, 45266, 18681443457, "4c9b9ad3760eb8b7"},
		{"absolute", Options{Epsilon: 1e-4, Absolute: true},
			79294, 5383, 37690, 4315216, 73284, 34251740989, "5ca2e324ed1d43a2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runTimed(t, g, 17, TimedOptions{Options: tc.opt}, 9)
			h := fnv.New64a()
			for _, r := range res.Ranks {
				fmt.Fprintf(h, "%x,", math.Float64bits(r))
			}
			got := fmt.Sprintf("%d %d %d %d %d %d %016x", res.Counters.InterPeerMsgs, res.Counters.IntraPeerMsgs,
				res.Batches, res.BytesSent, res.Events, int64(res.SimulatedTime), h.Sum64())
			want := fmt.Sprintf("%d %d %d %d %d %d %s", tc.inter, tc.intra, tc.batches, tc.bytes, tc.events, tc.simNS, tc.rankHash)
			if got != want {
				t.Fatalf("got  %s\nwant %s", got, want)
			}
		})
	}
}

// TestTimedEnginePinnedAccuracy holds the pinned plain run to what its
// message count bought: ranks within 5e-4 of the centralized solution at
// the 99th percentile for ε = 1e-4 (measured 3.4e-4, worst document
// 4.8e-4; under the successive-recompute test the same run cost 28x the
// messages for 4.1e-3, worst 4.2e-2).
func TestTimedEnginePinnedAccuracy(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(3000, 5))
	want := reference(t, g)
	res := runTimed(t, g, 17, TimedOptions{Options: Options{Epsilon: 1e-4}}, 9)
	errs := make([]float64, len(want))
	for i := range errs {
		errs[i] = math.Abs(res.Ranks[i]-want[i]) / want[i]
	}
	slices.Sort(errs)
	if p99 := errs[len(errs)*99/100]; p99 > 5e-4 {
		t.Fatalf("p99 relative error %v (max %v), want <= 5e-4", p99, errs[len(errs)-1])
	}
}

// TestResidualBoundAtQuiescence is the residual-bound oracle for the
// driver of p2p.Ranker in this package: when Run returns, no row holds
// an un-pushed rank change past ε of its rank — D-Iteration's bound on
// what the fixed point can still be missing. A test on the distance
// between successive recomputes cannot give it: steps under ε each pile
// up in rank − last without limit.
func TestResidualBoundAtQuiescence(t *testing.T) {
	const eps = 1e-3
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(3000, 5))
	net := p2p.NewNetwork(17)
	net.AssignRandom(g, rng.New(9))
	timed, err := NewTimedEngine(g, net, TimedOptions{Options: Options{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := timed.Run(); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	rank := make([]float64, g.NumNodes())
	for _, rk := range timed.rankers {
		rk.RanksInto(rank)
		docs, _, last := rk.Rows()
		for i, d := range docs {
			worst = max(worst, math.Abs(rank[d]-last[i])/math.Abs(rank[d]))
		}
	}
	if worst > eps {
		t.Errorf("a row holds an un-pushed residual of %v of its rank, want <= %v", worst, eps)
	}
}

func TestTimedEngineBandwidthScaling(t *testing.T) {
	// ~6x more bandwidth should shrink the transfer-bound completion
	// time substantially (the Table 3 32 vs 200 KB/s columns).
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(2000, 113))
	slow := runTimed(t, g, 50, TimedOptions{Bandwidth: 32 * 1024, Latency: -1}, 3)
	fast := runTimed(t, g, 50, TimedOptions{Bandwidth: 200 * 1024, Latency: -1}, 3)
	if fast.SimulatedTime >= slow.SimulatedTime {
		t.Fatalf("faster network not faster: %v vs %v", fast.SimulatedTime, slow.SimulatedTime)
	}
	ratio := float64(slow.SimulatedTime) / float64(fast.SimulatedTime)
	if ratio < 2 {
		t.Fatalf("bandwidth speedup only %.1fx; computation should be transfer-bound", ratio)
	}
}

func TestTimedEngineLatencyAddsTime(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 114))
	noLat := runTimed(t, g, 16, TimedOptions{Latency: -1}, 4)
	withLat := runTimed(t, g, 16, TimedOptions{Latency: 200 * time.Millisecond}, 4)
	if withLat.SimulatedTime <= noLat.SimulatedTime {
		t.Fatalf("latency did not slow completion: %v vs %v",
			withLat.SimulatedTime, noLat.SimulatedTime)
	}
}

func TestTimedEngineBatchingSavesBytes(t *testing.T) {
	// Batches amortize headers: total bytes must stay well under
	// one-header-per-message.
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1500, 115))
	res := runTimed(t, g, 10, TimedOptions{}, 5)
	perMsgWorstCase := res.Counters.InterPeerMsgs * (64 + p2p.UpdateWireBytes)
	if res.BytesSent >= perMsgWorstCase {
		t.Fatalf("batching saved nothing: %d bytes vs %d unbatched",
			res.BytesSent, perMsgWorstCase)
	}
	if res.Batches >= res.Counters.InterPeerMsgs {
		t.Fatalf("batches %d not fewer than messages %d", res.Batches, res.Counters.InterPeerMsgs)
	}
}

func TestTimedEngineSinglePeerInstantNetwork(t *testing.T) {
	// One peer: everything is local, no uplink traffic at all.
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(300, 116))
	res := runTimed(t, g, 1, TimedOptions{}, 6)
	if res.BytesSent != 0 || res.Counters.InterPeerMsgs != 0 {
		t.Fatalf("single peer used the network: %+v", res)
	}
	want := reference(t, g)
	// Default epsilon: coarse agreement.
	if err := maxRelErr(res.Ranks, want); err > 0.05 {
		t.Fatalf("single-peer error %v", err)
	}
}

func TestTimedEngineValidation(t *testing.T) {
	g := graph.Cycle(4)
	net := p2p.NewNetwork(2)
	net.AssignRandom(g, rng.New(1))
	if _, err := NewTimedEngine(g, net, TimedOptions{Options: Options{Damping: 5}}); err == nil {
		t.Fatal("accepted bad damping")
	}
	if _, err := NewTimedEngine(g, net, TimedOptions{Bandwidth: -3}); err == nil {
		t.Fatal("accepted negative bandwidth")
	}
	empty := p2p.NewNetwork(2)
	if _, err := NewTimedEngine(g, empty, TimedOptions{}); err == nil {
		t.Fatal("accepted unplaced docs")
	}
	// MaxEvents aborts rather than spinning.
	e, err := NewTimedEngine(g, net, TimedOptions{MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("MaxEvents not enforced")
	}
}
