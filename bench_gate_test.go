package dpr

// The bench-regression gate: reruns the workers=1 pass-pipeline
// benchmark and fails if throughput or steady-state allocations have
// regressed more than 25% against the recorded baseline in
// results/BENCH_passpipeline.json, then measures the telemetry-
// instrumented variant and enforces the <3% overhead budget. Benchmark
// runs take tens of seconds and their numbers are hardware-dependent,
// so the gate only arms when DPR_BENCH_CHECK=1 is set (make
// bench-check); otherwise it skips.

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"dpr/internal/experiments"
	"dpr/internal/graph"
	"dpr/internal/telemetry"
)

// benchBaseline mirrors the slice of results/BENCH_passpipeline.json
// the gate reads.
type benchBaseline struct {
	Pipeline struct {
		Workers1 struct {
			AllocsOp   float64 `json:"allocs_op"`
			DocsPerSec float64 `json:"docs_per_sec"`
		} `json:"workers1"`
	} `json:"pipeline"`
}

// benchRounds is how many times each gate benchmark variant runs;
// comparisons use the fastest round so transient container load
// doesn't read as a code regression.
const benchRounds = 3

// bestOf runs plain and instr in turn, rounds times over — alternating,
// so a swing in machine load lands on both sides and not on whichever
// ran second — and returns each side's round with the highest docs/sec
// along with that throughput.
func bestOf(rounds int, plain, instr func(b *testing.B)) (best [2]testing.BenchmarkResult, bestDocs [2]float64) {
	for i := 0; i < rounds; i++ {
		for side, fn := range [2]func(b *testing.B){plain, instr} {
			r := testing.Benchmark(fn)
			if docs := r.Extra["docs/sec"]; docs > bestDocs[side] {
				best[side], bestDocs[side] = r, docs
			}
		}
	}
	return best, bestDocs
}

func TestBenchRegressionGate(t *testing.T) {
	if os.Getenv("DPR_BENCH_CHECK") == "" {
		t.Skip("set DPR_BENCH_CHECK=1 (make bench-check) to run the bench regression gate")
	}
	raw, err := os.ReadFile("results/BENCH_passpipeline.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	wantAllocs := base.Pipeline.Workers1.AllocsOp
	wantDocs := base.Pipeline.Workers1.DocsPerSec
	if wantAllocs == 0 || wantDocs == 0 {
		t.Fatalf("baseline missing pipeline.workers1 numbers: %+v", base)
	}

	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(100000, 1))

	// Single-shot benchmark numbers swing +/-15% on a loaded 1-CPU
	// container, so each variant gets benchRounds interleaved runs and
	// the comparison uses the best throughput either side achieved —
	// machine noise only ever subtracts from a run. The second side is
	// the same loop with a live sink (registry histograms + trace ring),
	// for the telemetry-overhead half below.
	sink := telemetry.NewPassSink(telemetry.NewRegistry(), telemetry.NewTrace(0))
	best, docs := bestOf(benchRounds, passPipelineBench(g, 1, nil), passPipelineBench(g, 1, sink))
	plain, plainDocs, instr, instrDocs := best[0], docs[0], best[1], docs[1]
	t.Logf("plain:     %v allocs/op, %.0f docs/sec (baseline %.0f allocs/op, %.0f docs/sec)",
		plain.AllocsPerOp(), plainDocs, wantAllocs, wantDocs)

	const tolerance = 0.25
	if got := float64(plain.AllocsPerOp()); got > wantAllocs*(1+tolerance) {
		t.Errorf("allocs/op regressed beyond %d%%: %v vs baseline %v",
			int(tolerance*100), got, wantAllocs)
	}
	if plainDocs < wantDocs*(1-tolerance) {
		t.Errorf("docs/sec regressed beyond %d%%: %.0f vs baseline %.0f",
			int(tolerance*100), plainDocs, wantDocs)
	}

	// Telemetry overhead: the budget is <3% throughput and no per-op
	// allocation growth beyond noise — the sink's mutators are
	// //dpr:hotpath and allocation-free by construction.
	t.Logf("telemetry: %v allocs/op, %.0f docs/sec", instr.AllocsPerOp(), instrDocs)

	if plainDocs > 0 {
		overhead := 1 - instrDocs/plainDocs
		t.Logf("telemetry throughput overhead: %.2f%%", overhead*100)
		if overhead > 0.03 {
			t.Errorf("telemetry overhead %.2f%% exceeds the 3%% budget", overhead*100)
		}
	}
	if extra := instr.AllocsPerOp() - plain.AllocsPerOp(); extra > 2 {
		t.Errorf("telemetry adds %d allocs/op to the hot path (want 0, tolerate alloc-count noise of 2)", extra)
	}
}

// bigBaseline mirrors the slice of results/BENCH_bigraph.json the
// compressed-substrate gate reads.
type bigBaseline struct {
	Runs map[string]experiments.BigGraphResult `json:"runs"`
}

// TestBigGraphRegressionGate reruns the 100k-doc BigGraph workload on
// both substrates and enforces the compressed graph substrate's
// contract: payload at or under 1.5 bytes/edge (a hard bound, not
// drift-relative), ranks bit-identical to the plain representation,
// and generation/solve throughput within 25% of the recorded baseline
// in results/BENCH_bigraph.json. Like the pipeline gate it arms only
// under DPR_BENCH_CHECK=1 because the throughput halves are
// hardware-dependent.
func TestBigGraphRegressionGate(t *testing.T) {
	if os.Getenv("DPR_BENCH_CHECK") == "" {
		t.Skip("set DPR_BENCH_CHECK=1 (make bench-check) to run the BigGraph regression gate")
	}
	raw, err := os.ReadFile("results/BENCH_bigraph.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base bigBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	ref, ok := base.Runs["100000_csr"]
	if !ok || ref.GenEdgesPerSec == 0 || ref.SolveUpdatesPerSec == 0 {
		t.Fatalf("baseline missing the 100000_csr run: %+v", ref)
	}

	cfg := experiments.BigGraphConfig{
		Docs:    ref.Docs,
		Workers: ref.Workers,
		Seed:    ref.Seed,
		Clock:   func() int64 { return time.Now().UnixNano() },
	}
	plainRun, err := experiments.BigGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Compressed = true
	comp, err := experiments.BigGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The structural results (edges, passes, rank hash, bytes/edge) are
	// deterministic, so extra rounds only serve the throughput checks:
	// keep the best gen/solve rates seen so container load doesn't trip
	// the drift bound.
	for i := 1; i < benchRounds; i++ {
		again, err := experiments.BigGraph(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again.GenEdgesPerSec > comp.GenEdgesPerSec {
			comp.GenEdgesPerSec = again.GenEdgesPerSec
		}
		if again.SolveUpdatesPerSec > comp.SolveUpdatesPerSec {
			comp.SolveUpdatesPerSec = again.SolveUpdatesPerSec
		}
	}
	t.Logf("compressed: %.3f bytes/edge, %.1fM gen edges/sec, %.1fM solve updates/sec (baseline %.3f, %.1fM, %.1fM)",
		comp.BytesPerEdge, comp.GenEdgesPerSec/1e6, comp.SolveUpdatesPerSec/1e6,
		ref.BytesPerEdge, ref.GenEdgesPerSec/1e6, ref.SolveUpdatesPerSec/1e6)

	if comp.BytesPerEdge > 1.5 {
		t.Errorf("compressed payload %.3f bytes/edge exceeds the 1.5 acceptance bound", comp.BytesPerEdge)
	}
	if comp.RankHash != plainRun.RankHash {
		t.Errorf("ranks diverged between substrates: %x vs %x", comp.RankHash, plainRun.RankHash)
	}
	if comp.Edges != ref.Edges || comp.Passes != ref.Passes {
		t.Errorf("workload drifted from baseline: %d edges / %d passes vs %d / %d "+
			"(rerecord results/BENCH_bigraph.json if the generator changed intentionally)",
			comp.Edges, comp.Passes, ref.Edges, ref.Passes)
	}
	const tolerance = 0.25
	if comp.GenEdgesPerSec < ref.GenEdgesPerSec*(1-tolerance) {
		t.Errorf("generation regressed beyond %d%%: %.0f edges/sec vs baseline %.0f",
			int(tolerance*100), comp.GenEdgesPerSec, ref.GenEdgesPerSec)
	}
	if comp.SolveUpdatesPerSec < ref.SolveUpdatesPerSec*(1-tolerance) {
		t.Errorf("compressed solve regressed beyond %d%%: %.0f updates/sec vs baseline %.0f",
			int(tolerance*100), comp.SolveUpdatesPerSec, ref.SolveUpdatesPerSec)
	}
}
