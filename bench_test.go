package dpr

// One benchmark per table and figure of the paper's evaluation, plus
// the ablations called out in DESIGN.md. Each bench runs the same
// driver as cmd/dprbench at a laptop-fast scale and reports the
// headline quantity of its table as a custom metric, so `go test
// -bench=.` regenerates every result's shape in one command.

import (
	"fmt"
	"testing"

	"dpr/internal/core"
	"dpr/internal/engine"
	"dpr/internal/experiments"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
	"dpr/internal/telemetry"
)

func benchScale() experiments.Scale {
	return experiments.Scale{
		GraphSizes:   []int{1000, 5000},
		Peers:        100,
		SearchPeers:  50,
		InsertTrials: 50,
		CorpusDocs:   2000,
		Seed:         42,
	}
}

// BenchmarkTable1Convergence regenerates Table 1: passes to converge
// per graph size and peer availability.
func BenchmarkTable1Convergence(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(sc)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.Passes[0]), "passes@100%")
		b.ReportMetric(float64(last.Passes[2]), "passes@50%")
	}
}

// BenchmarkTable2Quality regenerates Table 2: relative error
// distribution versus the centralized baseline per threshold.
func BenchmarkTable2Quality(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	sc.GraphSizes = []int{5000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(sc)
		if err != nil {
			b.Fatal(err)
		}
		block := res.Blocks[0]
		for ei, eps := range block.Eps {
			if eps == 1e-3 {
				b.ReportMetric(block.Summaries[ei].Max, "maxerr@1e-3")
				b.ReportMetric(block.Summaries[ei].Avg, "avgerr@1e-3")
			}
		}
	}
}

// BenchmarkTable3Traffic regenerates Table 3: update-message traffic
// versus threshold, with execution-time estimates.
func BenchmarkTable3Traffic(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Eps == 1e-3 {
				b.ReportMetric(row.PerNode[len(row.PerNode)-1], "msgs/node@1e-3")
			}
		}
	}
}

// BenchmarkTable4Insert regenerates Table 4: insert-propagation path
// length and node coverage versus threshold.
func BenchmarkTable4Insert(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	sc.GraphSizes = []int{5000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(sc)
		if err != nil {
			b.Fatal(err)
		}
		for ei, eps := range res.Eps {
			if eps == 1e-3 {
				b.ReportMetric(res.Cells[ei][0].PathLength, "pathlen@1e-3")
				b.ReportMetric(res.Cells[ei][0].Coverage, "coverage@1e-3")
			}
		}
	}
}

// BenchmarkTable6Search regenerates Table 6: incremental-search
// traffic reduction for two- and three-word queries.
func BenchmarkTable6Search(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TwoTerm.Top10.AvgReduction, "reduction2w@10%")
		b.ReportMetric(res.ThreeTerm.Top10.AvgReduction, "reduction3w@10%")
	}
}

// BenchmarkFigure1Engine times the distributed algorithm itself
// (Figure 1's pseudo-code) on a 10k-document graph over 500 peers.
func BenchmarkFigure1Engine(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := p2p.NewNetwork(500)
		net.AssignRandom(g, rng.New(1))
		e, err := core.NewPassEngine(g, net, nil, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res := e.Run()
		if !res.Converged {
			b.Fatal("did not converge")
		}
		b.ReportMetric(float64(res.Passes), "passes")
	}
}

// BenchmarkFigure2Propagation times the increment wave of Figure 2's
// example on the standard graph.
func BenchmarkFigure2Propagation(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 2))
	r := rng.New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := graph.NodeID(r.Intn(g.NumNodes()))
		core.MeasureInsertPropagation(g, start, core.InitialRank, core.DefaultDamping, 1e-3)
	}
}

// BenchmarkAblationPassVsDiffusion compares the paper's pass-based
// simulation with the round driver under the staged push threshold on
// identical input.
func BenchmarkAblationPassVsDiffusion(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(5000, 4))
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := p2p.NewNetwork(16)
			net.AssignRandom(g, rng.New(1))
			e, err := core.NewPassEngine(g, net, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res := e.Run()
			b.ReportMetric(float64(res.Counters.InterPeerMsgs), "netmsgs")
		}
	})
	b.Run("diffusion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := p2p.NewNetwork(16)
			net.AssignRandom(g, rng.New(1))
			e, err := engine.New("diffusion", engine.Config{Graph: g, Net: net})
			if err != nil {
				b.Fatal(err)
			}
			res := engine.Drive(e, 0)
			b.ReportMetric(float64(res.Counters.InterPeerMsgs), "netmsgs")
		}
	})
}

// BenchmarkAblationRelVsAbs compares the Figure 1 relative-error send
// threshold with an absolute-error variant.
func BenchmarkAblationRelVsAbs(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(5000, 5))
	run := func(b *testing.B, absolute bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := p2p.NewNetwork(100)
			net.AssignRandom(g, rng.New(1))
			e, err := core.NewPassEngine(g, net, nil, core.Options{Absolute: absolute})
			if err != nil {
				b.Fatal(err)
			}
			res := e.Run()
			b.ReportMetric(float64(res.Counters.InterPeerMsgs), "netmsgs")
			b.ReportMetric(float64(res.Passes), "passes")
		}
	}
	b.Run("relative", func(b *testing.B) { run(b, false) })
	b.Run("absolute", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationSolvers compares the centralized solver family the
// related-work section discusses: plain power iteration, Gauss-Seidel
// and Aitken-accelerated power iteration.
func BenchmarkAblationSolvers(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 6))
	g.Transpose()
	cfg := solver.Config{Tol: 1e-10}
	b.Run("power", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := solver.Power(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "iters")
		}
	})
	b.Run("gauss-seidel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := solver.GaussSeidel(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "iters")
		}
	})
	b.Run("aitken", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := solver.PowerAitken(g, solver.ExtrapolationConfig{Config: cfg, Every: 10})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "iters")
		}
	})
}

// BenchmarkAblationPushVsPull compares the engine's O(N)-state
// delta-push against the pull-style full recompute (synchronous
// Jacobi), the design decision DESIGN.md calls out.
func BenchmarkAblationPushVsPull(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(10000, 7))
	b.Run("delta-push", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := p2p.NewNetwork(1)
			net.AssignRandom(g, rng.New(1))
			e, err := core.NewPassEngine(g, net, nil, core.Options{Epsilon: 1e-10})
			if err != nil {
				b.Fatal(err)
			}
			e.Run()
		}
	})
	b.Run("pull-recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Power(g, solver.Config{Tol: 1e-10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIPCache measures the section 3.2 address cache:
// total network hops for one full computation with DHT routing on
// every message versus routing once and caching the address.
func BenchmarkAblationIPCache(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(5000, 8))
	run := func(b *testing.B, cached bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := p2p.NewNetwork(64)
			net.AssignRandom(g, rng.New(1))
			e, err := core.NewPassEngine(g, net, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			router, err := p2p.NewCachedRouter(64, cached)
			if err != nil {
				b.Fatal(err)
			}
			e.Router = router
			e.Run()
			c := e.Counters()
			b.ReportMetric(c.HopsPerMessage(), "hops/msg")
			b.ReportMetric(float64(c.RoutedHops), "hops")
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, true) })
	b.Run("uncached", func(b *testing.B) { run(b, false) })
}

// BenchmarkRunPassParallel measures the sharded pass pipeline itself:
// pass throughput (documents processed per second) on a 100k-document
// power-law graph, swept over worker counts. Engine and placement
// setup run off the clock so the numbers isolate RunPass's
// compute/merge/reduce stages; allocations are reported to track the
// pipeline's steady-state ~zero-alloc property.
func BenchmarkRunPassParallel(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(100000, 1))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), passPipelineBench(g, workers, nil))
	}
}

// BenchmarkRunPassTelemetry is the workers=1 pipeline benchmark with a
// live telemetry sink (registry histograms plus trace ring) attached —
// the instrumentation-cost measurement behind
// results/BENCH_telemetry.json and the <3%% overhead budget
// make bench-check enforces.
func BenchmarkRunPassTelemetry(b *testing.B) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(100000, 1))
	sink := telemetry.NewPassSink(telemetry.NewRegistry(), telemetry.NewTrace(0))
	b.Run("workers1", passPipelineBench(g, 1, sink))
}

// passPipelineBench is the shared body of the pass-pipeline
// benchmarks: engine and placement setup off the clock, e.Run() on it,
// throughput and steady-state allocations reported. sink, when
// non-nil, attaches per-pass telemetry so the same loop measures the
// instrumented hot path (testing.Benchmark reuses it from the
// bench-regression gate).
func passPipelineBench(g *graph.Graph, workers int, sink *telemetry.PassSink) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var docs, passes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := p2p.NewNetwork(1000)
			net.AssignRandom(g, rng.New(1))
			e, err := core.NewPassEngine(g, net, nil, core.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			e.Sink = sink
			e.OnPass = func(s core.PassStats) bool {
				docs += int64(s.ProcessedDocs)
				passes++
				return true
			}
			b.StartTimer()
			res := e.Run()
			if !res.Converged {
				b.Fatal("did not converge")
			}
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(docs)/sec, "docs/sec")
		}
		b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
	}
}
