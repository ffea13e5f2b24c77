package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps experiment tests fast while exercising the full
// sweep structure.
func tinyScale() Scale {
	return Scale{
		GraphSizes:   []int{500, 2000},
		Peers:        50,
		SearchPeers:  20,
		InsertTrials: 20,
		CorpusDocs:   800,
		Seed:         7,
	}
}

func TestTable1ShapesMatchPaper(t *testing.T) {
	res, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Passes) != len(Availabilities) {
			t.Fatalf("row has %d availability cells", len(row.Passes))
		}
		// Paper shape: churn slows convergence.
		if !(row.Passes[0] <= row.Passes[1] && row.Passes[1] <= row.Passes[2]) {
			t.Fatalf("passes not monotone in churn: %v", row.Passes)
		}
		// Order of magnitude sanity: tens to low hundreds of passes.
		if row.Passes[0] < 3 || row.Passes[2] > 5000 {
			t.Fatalf("implausible pass counts: %v", row.Passes)
		}
	}
	// Paper shape: passes grow slowly with graph size.
	if res.Rows[1].Passes[0] < res.Rows[0].Passes[0]/2 {
		t.Fatalf("larger graph converged drastically faster: %v vs %v",
			res.Rows[1].Passes, res.Rows[0].Passes)
	}
	out := res.Render().String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "100") {
		t.Fatalf("render missing parts:\n%s", out)
	}
}

func TestTable2QualityImprovesWithThreshold(t *testing.T) {
	sc := tinyScale()
	sc.GraphSizes = []int{2000}
	res, err := Table2(sc)
	if err != nil {
		t.Fatal(err)
	}
	block := res.Blocks[0]
	if len(block.Summaries) != len(EpsSweep) {
		t.Fatalf("%d summaries", len(block.Summaries))
	}
	// Average error shrinks (weakly) as the threshold tightens across
	// the sweep's extremes.
	first, last := block.Summaries[0], block.Summaries[len(block.Summaries)-1]
	if last.Avg > first.Avg {
		t.Fatalf("avg error grew as eps shrank: %v -> %v", first.Avg, last.Avg)
	}
	// Paper headline: at 1e-3 the max error is below ~1%.
	for ei, eps := range block.Eps {
		if eps == 1e-3 {
			if block.Summaries[ei].Max > 0.05 {
				t.Fatalf("max error at 1e-3 is %v; paper reports <1%%", block.Summaries[ei].Max)
			}
		}
	}
	tables := res.Render()
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "Table 2") {
		t.Fatal("render wrong")
	}
}

func TestTable3TrafficGrowsWithTightness(t *testing.T) {
	sc := tinyScale()
	res, err := Table3(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(EpsSweep) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		for gi := range sc.GraphSizes {
			if res.Rows[i].Total[gi] < res.Rows[i-1].Total[gi] {
				t.Fatalf("tighter eps sent fewer messages: row %d col %d", i, gi)
			}
		}
	}
	// Paper: per-node traffic is roughly graph-size independent —
	// within a small factor across sizes at the same threshold.
	for _, row := range res.Rows {
		lo, hi := row.PerNode[0], row.PerNode[0]
		for _, v := range row.PerNode {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 5*lo {
			t.Fatalf("per-node traffic varies %vx across sizes at eps=%v", hi/lo, row.Eps)
		}
	}
	// Paper: traffic grows ~logarithmically — from 1e-1 to 1e-6 the
	// per-node traffic grows by well under 100x (paper sees <3x).
	firstRow, lastRow := res.Rows[1], res.Rows[len(res.Rows)-1]
	growth := lastRow.PerNode[0] / firstRow.PerNode[0]
	if growth > 20 {
		t.Fatalf("traffic grew %vx from 1e-1 to 1e-6; paper reports <3x", growth)
	}
	// Exec time estimates are positive and ordered (slow > fast).
	for _, row := range res.Rows {
		if row.ExecSlow <= row.ExecFast {
			t.Fatalf("32KB/s estimate %v not slower than 200KB/s %v", row.ExecSlow, row.ExecFast)
		}
	}
	if !strings.Contains(res.Render().String(), "Table 3") {
		t.Fatal("render wrong")
	}
}

func TestTable4GrowthShapes(t *testing.T) {
	sc := tinyScale()
	sc.GraphSizes = []int{3000}
	res, err := Table4(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(InsertEpsSweep) {
		t.Fatalf("%d rows", len(res.Cells))
	}
	// Path length and coverage grow (weakly) as eps tightens.
	for i := 1; i < len(res.Cells); i++ {
		if res.Cells[i][0].PathLength < res.Cells[i-1][0].PathLength-1e-9 {
			t.Fatalf("path length shrank when eps tightened at row %d", i)
		}
		if res.Cells[i][0].Coverage < res.Cells[i-1][0].Coverage-1e-9 {
			t.Fatalf("coverage shrank when eps tightened at row %d", i)
		}
	}
	// Magnitude: the deepest possible wave decays via damping alone
	// along out-degree-1 chains, bounding path length by
	// log(eps)/log(d) ~= 71 at eps=1e-5.
	last := res.Cells[len(res.Cells)-1][0]
	if last.PathLength < 1 || last.PathLength > 75 {
		t.Fatalf("path length at 1e-5 = %v", last.PathLength)
	}
	tables := res.Render()
	if len(tables) != 2 {
		t.Fatal("expected two sub-tables")
	}
}

func TestTable5Static(t *testing.T) {
	out := Table5().String()
	for _, want := range []string{"Convergence", "Pagerank Quality", "Message Traffic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q", want)
		}
	}
}

func TestTable6ReductionShape(t *testing.T) {
	res, err := Table6(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []Table6Block{res.TwoTerm, res.ThreeTerm} {
		if block.QueriesEvaluated != 20 {
			t.Fatalf("evaluated %d queries", block.QueriesEvaluated)
		}
		// The headline: order-of-magnitude reduction at top-10%,
		// smaller at top-20%, both well above 1.
		if block.Top10.AvgReduction < 2 {
			t.Fatalf("%d-term top-10%% reduction only %.1f", block.Words, block.Top10.AvgReduction)
		}
		if block.Top20.AvgReduction < 1.5 {
			t.Fatalf("%d-term top-20%% reduction only %.1f", block.Words, block.Top20.AvgReduction)
		}
		// No ordering assertion between top-10% and top-20%: the
		// >=20-hit forwarding floor can make top-10%% ship MORE than
		// top-20%% on mid-sized lists (the simulation artifact the
		// paper itself documents under Table 6).
		// Hits returned are manageable vs the baseline.
		if block.Top10.AvgHits > block.BaselineAvgHits {
			t.Fatalf("incremental returned more hits than baseline")
		}
	}
	if !strings.Contains(res.Render().String(), "Average traffic reduction") {
		t.Fatal("render wrong")
	}
}

func TestQualityVsPass(t *testing.T) {
	sc := tinyScale()
	sc.GraphSizes = []int{2000}
	rs, err := QualityVsPass(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	// The pass engine contracts at ~d per pass, so 1%% accuracy needs
	// at most ~log(0.01)/log(0.85) ~= 28 passes; 99%% of documents get
	// there a little sooner. (The paper reports <10 — see
	// EXPERIMENTS.md for the discrepancy discussion.)
	if r.PassesTo99Within1 > 40 {
		t.Fatalf("99%%-within-1%% took %d passes", r.PassesTo99Within1)
	}
	if r.PassesToAllWithin01 < r.PassesTo99Within1 {
		t.Fatalf("tighter target reached earlier: %d < %d",
			r.PassesToAllWithin01, r.PassesTo99Within1)
	}
	if r.PassesToAllWithin01 > 100 {
		t.Fatalf("all-within-0.1%% took %d passes; paper reports ~30", r.PassesToAllWithin01)
	}
	if !strings.Contains(RenderQualityVsPass(rs).String(), "4.3") {
		t.Fatal("render wrong")
	}
}

func TestWebScaleEstimates(t *testing.T) {
	sc := tinyScale()
	sc.GraphSizes = []int{2000}
	rows, err := WebScale(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Looser threshold converges faster.
	if rows[0].Estimate > rows[1].Estimate {
		t.Fatalf("1e-1 estimate %v exceeds 1e-3 estimate %v", rows[0].Estimate, rows[1].Estimate)
	}
	// Paper: same order of magnitude as the centralized crawl (days to
	// a few weeks).
	for _, r := range rows {
		days := r.Estimate.Hours() / 24
		if days < 0.5 || days > 120 {
			t.Fatalf("eps=%v estimate %.1f days is out of the paper's ballpark", r.Eps, days)
		}
	}
	if !strings.Contains(RenderWebScale(rows).String(), "3e9") {
		t.Fatal("render wrong")
	}
}

func TestSolverComparison(t *testing.T) {
	sc := tinyScale()
	sc.GraphSizes = []int{2000}
	rows, err := SolverComparison(sc, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]SolverComparisonRow{}
	for _, r := range rows {
		if !r.Converged {
			t.Fatalf("%s did not converge", r.Name)
		}
		byName[r.Name] = r
	}
	if byName["gauss-seidel"].Iterations > byName["power"].Iterations {
		t.Fatal("Gauss-Seidel slower than power iteration")
	}
	if !strings.Contains(RenderSolverComparison(rows).String(), "gauss-seidel") {
		t.Fatal("render wrong")
	}
}

func TestScaleValidation(t *testing.T) {
	bad := []Scale{
		{},
		{GraphSizes: []int{1}, Peers: 1, SearchPeers: 1, InsertTrials: 1},
		{GraphSizes: []int{100}, Peers: 0, SearchPeers: 1, InsertTrials: 1},
		{GraphSizes: []int{100}, Peers: 1, SearchPeers: 1, InsertTrials: 0},
	}
	for i, sc := range bad {
		if _, err := Table1(sc); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestExecTimeValidation(t *testing.T) {
	sc := tinyScale()
	rows, err := ExecTimeValidation(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Faster network completes sooner.
	if rows[1].Simulated >= rows[0].Simulated {
		t.Fatalf("200KB/s (%v) not faster than 32KB/s (%v)",
			rows[1].Simulated, rows[0].Simulated)
	}
	for _, r := range rows {
		// The simulated time must land between the optimistic
		// concurrent Eq.4 single-round cost and a generous multiple of
		// the all-serialized bound.
		if r.Simulated <= 0 {
			t.Fatalf("no simulated time at %.0f B/s", r.Bandwidth)
		}
		if r.Messages <= 0 {
			t.Fatal("no messages")
		}
		// Asynchrony inflates messages relative to the pass engine,
		// within reason.
		if r.MsgInflation < 0.5 || r.MsgInflation > 100 {
			t.Fatalf("implausible message inflation %.1fx", r.MsgInflation)
		}
	}
	if RenderExecTime(rows).String() == "" {
		t.Fatal("render empty")
	}
}

func TestInsertCostCrossValidation(t *testing.T) {
	sc := tinyScale()
	sc.GraphSizes = []int{1500}
	sc.InsertTrials = 15
	rows, err := InsertCost(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.EngineMsgs <= 0 {
			t.Fatalf("eps=%v: no engine messages", r.Eps)
		}
		// Tighter thresholds cost more.
		if i > 0 && r.EngineMsgs < rows[i-1].EngineMsgs {
			t.Fatalf("tighter eps cheaper: %v < %v", r.EngineMsgs, rows[i-1].EngineMsgs)
		}
		// Engine messages and the analytic wave coverage are the same
		// order of magnitude (coverage counts distinct docs; messages
		// count per-link updates, so a modest factor apart).
		ratio := r.EngineMsgs / (r.AnalyticCoverage + 1)
		if ratio < 0.2 || ratio > 50 {
			t.Fatalf("eps=%v: engine %.0f vs analytic %.0f (ratio %.1f) diverge",
				r.Eps, r.EngineMsgs, r.AnalyticCoverage, ratio)
		}
	}
	if RenderInsertCost(rows).String() == "" {
		t.Fatal("render empty")
	}
}

// TestScaleEngineSelection covers the -engine plumbing: a named
// engine resolves through the internal/engine registry, an unknown
// name fails fast listing the valid engines, and churn sweeps reject
// engines without a store-and-retry path.
func TestScaleEngineSelection(t *testing.T) {
	sc := tinyScale()
	g, err := sc.buildGraph(500)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceRanks(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "pass", "diffusion", "chaotic"} {
		sc.Engine = name
		res, _, err := sc.runDistributed(g, 1e-6, 1.0)
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("engine %q did not converge", name)
		}
		worst := 0.0
		for i := range res.Ranks {
			if d := res.Ranks[i] - ref[i]; d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
		if worst > 1e-3 {
			t.Fatalf("engine %q: worst abs err %v vs reference", name, worst)
		}
	}

	sc.Engine = "gauss-seidel"
	if _, err := Table1(sc); err == nil {
		t.Fatal("unknown engine accepted")
	} else if !strings.Contains(err.Error(), "valid: chaotic, diffusion, pass") {
		t.Fatalf("unknown-engine error does not list valid engines: %v", err)
	}

	sc.Engine = "diffusion"
	if _, _, err := sc.runDistributed(g, 1e-6, 0.5); err == nil {
		t.Fatal("diffusion accepted a churn run")
	}
}
