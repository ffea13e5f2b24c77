package experiments

import (
	"fmt"

	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/metrics"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

// InsertCostRow cross-validates Table 4: the analytic propagation
// measurement (MeasureInsertPropagation) against the *actual* engine
// cost of inserting documents into a converged network.
type InsertCostRow struct {
	Eps              float64
	AnalyticCoverage float64 // Table 4's node coverage (upper bound on messages)
	EngineMsgs       float64 // measured messages per insert in the live engine
	EnginePasses     float64 // measured extra passes per insert
}

// InsertCost runs the cross-validation on the smallest configured
// graph: converge once, then insert InsertTrials documents one at a
// time through the dynamic-topology path, measuring the real message
// cost of each, and compare with the analytic wave measurement on the
// same start nodes.
func InsertCost(sc Scale) ([]InsertCostRow, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	n := sc.GraphSizes[0]
	base, err := sc.buildGraph(n)
	if err != nil {
		return nil, err
	}
	r := rng.New(sc.Seed ^ 0x1c0)
	trials := sc.InsertTrials
	if trials > 50 {
		trials = 50 // each trial converges the whole wave; keep it sane
	}
	var rows []InsertCostRow
	for _, eps := range []float64{1e-1, 1e-2, 1e-3} {
		m := graph.NewMutable(base)
		net := p2p.NewNetwork(sc.Peers)
		net.AssignRandom(base, rng.New(sc.Seed^0xa5a5))
		e, err := core.NewPassEngine(m, net, nil, core.Options{Epsilon: eps, MaxPass: 100000})
		if err != nil {
			return nil, err
		}
		e.Sink = sc.Sink
		if res := e.Run(); !res.Converged {
			return nil, fmt.Errorf("experiments: insert-cost base run did not converge")
		}
		row := InsertCostRow{Eps: eps}
		startMsgs := e.Counters().InterPeerMsgs + e.Counters().IntraPeerMsgs
		startPasses := e.Pass()
		for trial := 0; trial < trials; trial++ {
			target := graph.NodeID(r.Intn(n))
			row.AnalyticCoverage += float64(
				core.MeasureInsertPropagation(m, target, core.InitialRank, core.DefaultDamping, eps).Coverage)
			if _, err := e.InsertDocument([]graph.NodeID{target}, p2p.PeerID(r.Intn(sc.Peers))); err != nil {
				return nil, err
			}
			if res := e.Run(); !res.Converged {
				return nil, fmt.Errorf("experiments: insert %d did not reconverge", trial)
			}
		}
		total := e.Counters().InterPeerMsgs + e.Counters().IntraPeerMsgs
		row.AnalyticCoverage /= float64(trials)
		row.EngineMsgs = float64(total-startMsgs) / float64(trials)
		row.EnginePasses = float64(e.Pass()-startPasses) / float64(trials)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderInsertCost formats the cross-validation table.
func RenderInsertCost(rows []InsertCostRow) *metrics.Table {
	t := metrics.NewTable(
		"Insert cost: analytic wave (Table 4) vs live engine, per insert",
		"Threshold", "analytic coverage", "engine msgs", "engine passes")
	for _, r := range rows {
		t.AddRow(metrics.CellEps(r.Eps),
			fmt.Sprintf("%.0f", r.AnalyticCoverage),
			fmt.Sprintf("%.0f", r.EngineMsgs),
			fmt.Sprintf("%.1f", r.EnginePasses))
	}
	return t
}
