package core

import (
	"fmt"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

func TestParallelIdenticalToSerial(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(3000, 101))
	run := func(workers int) Result {
		net := p2p.NewNetwork(50)
		net.AssignRandom(g, rng.New(1))
		e, err := NewPassEngine(g, net, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8, -1} {
		par := run(workers)
		if par.Passes != serial.Passes {
			t.Fatalf("workers=%d: %d passes vs serial %d", workers, par.Passes, serial.Passes)
		}
		if par.Counters.InterPeerMsgs != serial.Counters.InterPeerMsgs ||
			par.Counters.IntraPeerMsgs != serial.Counters.IntraPeerMsgs {
			t.Fatalf("workers=%d: counters %+v vs serial %+v",
				workers, par.Counters, serial.Counters)
		}
		for i := range serial.Ranks {
			if par.Ranks[i] != serial.Ranks[i] {
				t.Fatalf("workers=%d: rank[%d] %v vs serial %v",
					workers, i, par.Ranks[i], serial.Ranks[i])
			}
		}
	}
}

// TestDeterminismAcrossWorkers is the pipeline's core safety property:
// with churn re-drawing the online set every pass, a DHT-backed router
// pricing every inter-peer message, and the retry queue active, the
// engine must produce bit-identical ranks and identical counters for
// any worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 301))
	run := func(workers int) Result {
		net := p2p.NewNetwork(100)
		net.AssignRandom(g, rng.New(7))
		churn, err := p2p.NewChurn(net, 0.7, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewPassEngine(g, net, churn, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		router, err := p2p.NewCachedRouter(100, true)
		if err != nil {
			t.Fatal(err)
		}
		e.Router = router
		return e.Run()
	}
	base := run(1)
	if !base.Converged {
		t.Fatal("serial run did not converge")
	}
	for _, workers := range []int{4, 8} {
		par := run(workers)
		if par.Passes != base.Passes || par.Converged != base.Converged {
			t.Fatalf("workers=%d: passes=%d converged=%v, serial passes=%d converged=%v",
				workers, par.Passes, par.Converged, base.Passes, base.Converged)
		}
		if par.Counters != base.Counters {
			t.Fatalf("workers=%d: counters diverge\n got %+v\nwant %+v",
				workers, par.Counters, base.Counters)
		}
		for i := range base.Ranks {
			if par.Ranks[i] != base.Ranks[i] {
				t.Fatalf("workers=%d: rank[%d] = %v, serial %v (not bit-identical)",
					workers, i, par.Ranks[i], base.Ranks[i])
			}
		}
	}
}

func TestParallelWithChurn(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1500, 102))
	want := reference(t, g)
	net := p2p.NewNetwork(25)
	net.AssignRandom(g, rng.New(2))
	churn, err := p2p.NewChurn(net, 0.6, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPassEngine(g, net, churn, Options{Epsilon: 1e-8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("parallel engine did not converge under churn")
	}
	if err := maxRelErr(res.Ranks, want); err > 1e-4 {
		t.Fatalf("parallel churn error %v", err)
	}
}

// checkChunks verifies the structural invariants of a split: chunks
// are contiguous, non-empty, and cover the work list exactly.
func checkChunks(t *testing.T, work []graph.NodeID, chunks [][]graph.NodeID, n int) {
	t.Helper()
	if len(chunks) > n && n >= 1 {
		t.Fatalf("n=%d produced %d chunks", n, len(chunks))
	}
	total := 0
	next := 0
	for ci, c := range chunks {
		if len(c) == 0 {
			t.Fatalf("n=%d: chunk %d is empty", n, ci)
		}
		total += len(c)
		for _, v := range c {
			if v != work[next] {
				t.Fatalf("n=%d: chunks not contiguous at %d", n, next)
			}
			next++
		}
	}
	if total != len(work) {
		t.Fatalf("n=%d: covered %d of %d elements", n, total, len(work))
	}
}

func TestSplitChunks(t *testing.T) {
	uniform := func(graph.NodeID) int { return 1 }

	// Empty work: no chunks, regardless of n.
	if got := splitChunksInto(nil, nil, 4, 0, uniform); got != nil {
		t.Fatalf("empty work produced %d chunks", len(got))
	}
	if got := splitChunksInto(nil, []graph.NodeID{}, 0, 0, uniform); got != nil {
		t.Fatalf("empty work with n=0 produced %d chunks", len(got))
	}

	work := make([]graph.NodeID, 10)
	for i := range work {
		work[i] = graph.NodeID(i)
	}

	// One worker (and the n<1 degenerate) yields a single chunk.
	for _, n := range []int{1, 0, -3} {
		chunks := splitChunksInto(nil, work, n, workWeight(work, uniform), uniform)
		if len(chunks) != 1 || len(chunks[0]) != len(work) {
			t.Fatalf("n=%d: want one full chunk, got %d chunks", n, len(chunks))
		}
	}

	// More workers than documents: at most one chunk per document,
	// never an empty chunk.
	for _, n := range []int{10, 20, 1000} {
		chunks := splitChunksInto(nil, work, n, workWeight(work, uniform), uniform)
		checkChunks(t, work, chunks, n)
		if len(chunks) != len(work) {
			t.Fatalf("n=%d over %d docs: got %d chunks, want %d",
				n, len(work), len(chunks), len(work))
		}
	}

	// Uniform weights split near-evenly.
	for _, n := range []int{2, 3, 5} {
		chunks := splitChunksInto(nil, work, n, workWeight(work, uniform), uniform)
		checkChunks(t, work, chunks, n)
		for ci, c := range chunks {
			if len(c) > (len(work)+n-1)/n+1 {
				t.Fatalf("n=%d: uniform chunk %d has %d docs", n, ci, len(c))
			}
		}
	}
}

func TestSplitChunksDegreeWeighted(t *testing.T) {
	// A hub with the bulk of the edge weight must not drag other
	// documents into its chunk: degree-aware splitting isolates it.
	work := make([]graph.NodeID, 8)
	for i := range work {
		work[i] = graph.NodeID(i)
	}
	deg := func(d graph.NodeID) int {
		if d == 0 {
			return 1000 // the hub
		}
		return 1
	}
	chunks := splitChunksInto(nil, work, 4, workWeight(work, deg), deg)
	checkChunks(t, work, chunks, 4)
	if len(chunks[0]) != 1 || chunks[0][0] != 0 {
		t.Fatalf("hub not isolated: first chunk %v", chunks[0])
	}

	// The remaining uniform documents still spread over the other
	// chunks instead of collapsing into one.
	if len(chunks) < 3 {
		t.Fatalf("light documents collapsed into %d chunks", len(chunks)-1)
	}

	// Weighted split is deterministic.
	again := splitChunksInto(nil, work, 4, workWeight(work, deg), deg)
	if len(again) != len(chunks) {
		t.Fatalf("nondeterministic chunk count: %d vs %d", len(again), len(chunks))
	}
	for i := range chunks {
		if len(again[i]) != len(chunks[i]) {
			t.Fatalf("nondeterministic chunk %d: %d vs %d docs", i, len(again[i]), len(chunks[i]))
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if defaultWorkers(0) != 1 {
		t.Fatal("0 should mean serial")
	}
	if defaultWorkers(3) != 3 {
		t.Fatal("explicit count ignored")
	}
	if defaultWorkers(-1) < 1 {
		t.Fatal("negative should resolve to GOMAXPROCS")
	}
}

func BenchmarkPassEngineWorkers(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(50000, 1))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // network + engine setup is not the pass pipeline
				net := p2p.NewNetwork(500)
				net.AssignRandom(g, rng.New(1))
				e, err := NewPassEngine(g, net, nil, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				e.Run()
			}
		})
	}
}
