package dpr_test

import (
	"fmt"
	"math"

	"dpr"
)

// The basic workflow: generate a web-like graph, spread it over peers,
// run the distributed computation, and inspect the result.
func ExampleComputePageRank() {
	g, err := dpr.GenerateWebGraph(2000, 42)
	if err != nil {
		panic(err)
	}
	res, err := dpr.ComputePageRank(g, dpr.Options{Peers: 50, Epsilon: 1e-6})
	if err != nil {
		panic(err)
	}
	ref, _ := dpr.CentralizedPageRank(g, 0.85)
	worst := 0.0
	for i := range ref {
		if rel := math.Abs(res.Ranks[i]-ref[i]) / ref[i]; rel > worst {
			worst = rel
		}
	}
	fmt.Println("converged:", res.Converged)
	fmt.Println("all ranks within 0.1% of centralized:", worst < 1e-3)
	// Output:
	// converged: true
	// all ranks within 0.1% of centralized: true
}

// Documents enter a live network, gain links and leave it; ranks
// re-converge incrementally without a global recompute.
func ExampleSession() {
	g := dpr.GraphFromLinks([][]dpr.NodeID{
		{1, 2}, // doc 0 links to 1 and 2
		{2},    // doc 1 links to 2
		{},     // doc 2 is a sink
	})
	s, err := dpr.NewSession(g, dpr.Options{Peers: 2, Epsilon: 1e-9})
	if err != nil {
		panic(err)
	}
	before := s.Ranks()[2]
	// A new document linking to doc 2 raises doc 2's rank.
	id, err := s.InsertDocument([]dpr.NodeID{2})
	if err != nil {
		panic(err)
	}
	fmt.Println("new document:", id)
	fmt.Println("doc 2's rank rose:", s.Ranks()[2] > before)
	// Doc 1 is edited to link to the new document as well.
	if err := s.AddLink(1, id); err != nil {
		panic(err)
	}
	fmt.Printf("new document's rank: %.4f\n", s.Ranks()[id])
	// Deleting the new document retracts everything it sent and drops
	// doc 1's link to it: doc 2 is back at its starting rank.
	if err := s.RemoveDocument(id); err != nil {
		panic(err)
	}
	fmt.Println("deleted document's rank:", s.Ranks()[id])
	ref, err := dpr.CentralizedPageRank(s.Snapshot(), 0.85)
	if err != nil {
		panic(err)
	}
	fmt.Printf("doc 2's rank: %.4f (centralized: %.4f)\n", s.Ranks()[2], ref[2])
	// Output:
	// new document: 3
	// doc 2's rank rose: true
	// new document's rank: 0.2408
	// deleted document's rank: 0
	// doc 2's rank: 0.3954 (centralized: 0.3954)
}

// Incremental keyword search forwards only the top pagerank-sorted
// hits between peers, cutting traffic roughly an order of magnitude.
func ExampleSearchIndex_Search() {
	g, err := dpr.GenerateWebGraph(2000, 7)
	if err != nil {
		panic(err)
	}
	pr, err := dpr.ComputePageRank(g, dpr.Options{Peers: 50})
	if err != nil {
		panic(err)
	}
	idx, err := dpr.BuildSyntheticSearchIndex(dpr.SearchCorpusConfig{
		NumDocs: 2000, NumTerms: 500, Peers: 50, Seed: 7,
	}, pr.Ranks)
	if err != nil {
		panic(err)
	}
	queries, err := idx.RandomQueries(1, 5, 2)
	if err != nil {
		panic(err)
	}
	var baseline, incremental int64
	for _, q := range queries {
		b, _ := idx.SearchBaseline(q)
		i, _ := idx.Search(q, 0.10)
		baseline += b.TrafficIDs
		incremental += i.TrafficIDs
	}
	fmt.Println("incremental cheaper:", incremental < baseline)
	// Output:
	// incremental cheaper: true
}
