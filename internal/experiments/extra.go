package experiments

import (
	"fmt"
	"time"

	"dpr/internal/core"
	"dpr/internal/metrics"
	"dpr/internal/netmodel"
	"dpr/internal/solver"
)

// Table5 renders the paper's qualitative summary table verbatim; its
// content is the conclusion the quantitative tables support.
func Table5() *metrics.Table {
	t := metrics.NewTable("Table 5: distributed pagerank computation summary", "Aspect", "Finding")
	t.AddRow("Convergence", "Fast convergence, high tolerance and adaptability to peer leaves and joins, good scalability with graph size.")
	t.AddRow("Pagerank Quality", "Very high, typically < 1% error, good scalability with graph size.")
	t.AddRow("Message Traffic", "Reasonably low, message traffic per node nearly constant, logarithmic growth with accuracy.")
	t.AddRow("Execution Time", "Reasonably low, dominated by network transfer time.")
	t.AddRow("Document Insertion, Deletion", "Handled naturally, no global recomputes required, pageranks continuously updated.")
	return t
}

// QualityVsPassResult reports the section 4.3 text claims: how many
// passes until 99% of documents are within 1% of R_c, and until the
// whole vector is within 0.1%.
type QualityVsPassResult struct {
	GraphSize           int
	PassesTo99Within1   int
	PassesToAllWithin01 int
}

// QualityVsPass measures rank-quality as a function of pass count for
// each graph size, using the distributed engine with a tight threshold
// and a per-pass probe against the centralized reference.
func QualityVsPass(sc Scale) ([]QualityVsPassResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	var out []QualityVsPassResult
	for _, n := range sc.GraphSizes {
		g, err := sc.buildGraph(n)
		if err != nil {
			return nil, err
		}
		ref, err := referenceRanks(g)
		if err != nil {
			return nil, err
		}
		net := sc.buildNetwork(g, sc.Peers)
		e, err := core.NewPassEngine(g, net, nil, core.Options{Epsilon: 1e-9})
		if err != nil {
			return nil, err
		}
		e.Sink = sc.Sink
		r := QualityVsPassResult{GraphSize: n}
		e.OnPass = func(s core.PassStats) bool {
			ranks := e.Ranks()
			within1, within01 := 0, 0
			for i := range ranks {
				rel := relErr(ranks[i], ref[i])
				if rel <= 0.01 {
					within1++
				}
				if rel <= 0.001 {
					within01++
				}
			}
			if r.PassesTo99Within1 == 0 && float64(within1) >= 0.99*float64(len(ranks)) {
				r.PassesTo99Within1 = s.Pass
			}
			if r.PassesToAllWithin01 == 0 && within01 == len(ranks) {
				r.PassesToAllWithin01 = s.Pass
				return false // measured everything we need
			}
			return true
		}
		e.Run()
		if r.PassesTo99Within1 == 0 || r.PassesToAllWithin01 == 0 {
			return nil, fmt.Errorf("experiments: quality-vs-pass targets never reached for %d nodes", n)
		}
		out = append(out, r)
	}
	return out, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	return d / want
}

// RenderQualityVsPass formats the section 4.3 measurements.
func RenderQualityVsPass(rs []QualityVsPassResult) *metrics.Table {
	t := metrics.NewTable("Section 4.3: rank quality vs pass count",
		"Graph size", "99% within 1% of R_c", "all within 0.1% of R_c")
	for _, r := range rs {
		t.AddRow(sizeLabel(r.GraphSize),
			metrics.CellInt(int64(r.PassesTo99Within1)),
			metrics.CellInt(int64(r.PassesToAllWithin01)))
	}
	return t
}

// WebScaleRow is one threshold's Internet-scale estimate.
type WebScaleRow struct {
	Eps           float64
	AvgMsgsPerDoc float64
	Estimate      time.Duration
}

// WebScale reproduces section 4.6.2: estimated convergence time for 3
// billion documents on T3-class links, using the measured per-document
// message counts (a graph-size-independent quantity) from a calibration
// run on the largest configured graph.
func WebScale(sc Scale) ([]WebScaleRow, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	g, err := sc.buildGraph(sc.GraphSizes[len(sc.GraphSizes)-1])
	if err != nil {
		return nil, err
	}
	model := netmodel.Model{Bandwidth: netmodel.RateT3}
	var out []WebScaleRow
	for _, eps := range []float64{1e-1, 1e-3} {
		res, _, err := sc.runDistributed(g, eps, 1.0)
		if err != nil {
			return nil, err
		}
		perDoc := res.Counters.PerNode(g.NumNodes())
		est, err := model.WebScale(3_000_000_000, perDoc)
		if err != nil {
			return nil, err
		}
		out = append(out, WebScaleRow{Eps: eps, AvgMsgsPerDoc: perDoc, Estimate: est})
	}
	return out, nil
}

// RenderWebScale formats the web-scale estimates.
func RenderWebScale(rows []WebScaleRow) *metrics.Table {
	t := metrics.NewTable("Section 4.6.2: web-server deployment, 3e9 documents on T3 links",
		"Threshold", "msgs/doc", "days")
	for _, r := range rows {
		t.AddRow(metrics.CellEps(r.Eps),
			fmt.Sprintf("%.1f", r.AvgMsgsPerDoc),
			fmt.Sprintf("%.1f", netmodel.Days(r.Estimate)))
	}
	return t
}

// SolverComparisonRow compares convergence of the centralized solver
// family (the section 7 discussion: chaotic iteration vs acceleration
// methods).
type SolverComparisonRow struct {
	Name       string
	Iterations int
	Converged  bool
}

// SolverComparison runs power iteration, Gauss-Seidel and quadratic
// extrapolation on the largest configured graph at the same tolerance.
func SolverComparison(sc Scale, tol float64) ([]SolverComparisonRow, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	g, err := sc.buildGraph(sc.GraphSizes[len(sc.GraphSizes)-1])
	if err != nil {
		return nil, err
	}
	cfg := solver.Config{Tol: tol}
	var out []SolverComparisonRow
	p, err := solver.Power(g, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, SolverComparisonRow{"power", p.Iterations, p.Converged})
	gs, err := solver.GaussSeidel(g, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, SolverComparisonRow{"gauss-seidel", gs.Iterations, gs.Converged})
	qe, err := solver.PowerQuadratic(g, solver.ExtrapolationConfig{Config: cfg, Every: 10})
	if err != nil {
		return nil, err
	}
	out = append(out, SolverComparisonRow{"power+quadratic", qe.Iterations, qe.Converged})
	return out, nil
}

// RenderSolverComparison formats the solver ablation.
func RenderSolverComparison(rows []SolverComparisonRow) *metrics.Table {
	t := metrics.NewTable("Ablation: centralized solver family", "Solver", "Iterations", "Converged")
	for _, r := range rows {
		t.AddRow(r.Name, metrics.CellInt(int64(r.Iterations)), fmt.Sprintf("%v", r.Converged))
	}
	return t
}
