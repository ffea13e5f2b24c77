package search

import (
	"sort"
	"testing"

	"dpr/internal/corpus"
	"dpr/internal/rng"
)

// buildFixture creates a corpus, fake ranks (doc id as rank, so higher
// ids rank higher — easy to reason about), and an index over 50 peers.
func buildFixture(t testing.TB, seed uint64) (*corpus.Corpus, *Index) {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{
		NumDocs: 2000, NumTerms: 400, MinDocTerms: 10, MaxDocTerms: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]float64, len(c.Docs))
	for i := range ranks {
		ranks[i] = float64(i)
	}
	idx, err := Build(c, ranks, 50)
	if err != nil {
		t.Fatal(err)
	}
	return c, idx
}

func TestBuildValidation(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{NumDocs: 10, NumTerms: 20, MinDocTerms: 2, MaxDocTerms: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, make([]float64, 10), 0); err == nil {
		t.Error("accepted zero peers")
	}
	if _, err := Build(c, make([]float64, 5), 3); err == nil {
		t.Error("accepted short rank vector")
	}
}

func TestIndexPostingsMatchCorpus(t *testing.T) {
	c, idx := buildFixture(t, 2)
	for term := 0; term < c.NumTerms; term++ {
		want := c.DocsWithTerm(corpus.TermID(term))
		got := idx.Postings(corpus.TermID(term))
		if len(got) != len(want) {
			t.Fatalf("term %d: %d postings, want %d", term, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc != want[i] {
				t.Fatalf("term %d posting %d: doc %d, want %d", term, i, got[i].Doc, want[i])
			}
			if got[i].Rank != float64(want[i]) {
				t.Fatalf("term %d: rank not attached", term)
			}
		}
	}
	if idx.Postings(-1) != nil || idx.Postings(corpus.TermID(c.NumTerms)) != nil {
		t.Fatal("out-of-range term returned postings")
	}
}

func TestUpdateRank(t *testing.T) {
	c, idx := buildFixture(t, 3)
	doc := c.Docs[100]
	touched := idx.UpdateRank(doc.ID, 999.5)
	if touched != len(doc.Terms) {
		t.Fatalf("touched %d partitions, doc has %d terms", touched, len(doc.Terms))
	}
	for _, term := range doc.Terms {
		for _, p := range idx.Postings(term) {
			if p.Doc == doc.ID && p.Rank != 999.5 {
				t.Fatalf("term %d still has old rank %v", term, p.Rank)
			}
		}
	}
	if idx.UpdateRank(99999999, 1) != 0 {
		t.Fatal("phantom doc touched partitions")
	}
}

// truthIntersection computes the exact AND set by brute force.
func truthIntersection(c *corpus.Corpus, query []corpus.TermID) map[uint32]bool {
	counts := map[uint32]int{}
	for _, term := range query {
		for _, d := range c.DocsWithTerm(term) {
			counts[d]++
		}
	}
	out := map[uint32]bool{}
	for d, n := range counts {
		if n == len(query) {
			out[d] = true
		}
	}
	return out
}

func TestBaselineExactAndSorted(t *testing.T) {
	c, idx := buildFixture(t, 4)
	r := rng.New(5)
	queries, err := c.MakeQueries(r, 10, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		res, err := Baseline(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		truth := truthIntersection(c, q)
		if len(res.Hits) != len(truth) {
			t.Fatalf("query %d: %d hits, truth %d", qi, len(res.Hits), len(truth))
		}
		for _, h := range res.Hits {
			if !truth[h.Doc] {
				t.Fatalf("query %d: spurious hit %d", qi, h.Doc)
			}
		}
		if !sort.SliceIsSorted(res.Hits, func(a, b int) bool {
			return res.Hits[a].Rank > res.Hits[b].Rank ||
				(res.Hits[a].Rank == res.Hits[b].Rank && res.Hits[a].Doc < res.Hits[b].Doc)
		}) {
			t.Fatalf("query %d: hits not rank-sorted", qi)
		}
		// Baseline traffic = first list + final set (2-word query).
		wantTraffic := int64(len(idx.Postings(q[0]))) + int64(len(res.Hits))
		if res.TrafficIDs != wantTraffic {
			t.Fatalf("query %d: traffic %d, want %d", qi, res.TrafficIDs, wantTraffic)
		}
	}
}

func TestIncrementalSubsetAndTopPreserved(t *testing.T) {
	c, idx := buildFixture(t, 6)
	r := rng.New(7)
	queries, err := c.MakeQueries(r, 15, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		base, err := Baseline(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Incremental(idx, q, 0.10, DefaultForwardFloor)
		if err != nil {
			t.Fatal(err)
		}
		// Incremental hits are a subset of the true result set.
		truth := truthIntersection(c, q)
		for _, h := range inc.Hits {
			if !truth[h.Doc] {
				t.Fatalf("query %d: incremental returned non-hit %d", qi, h.Doc)
			}
		}
		// Traffic never exceeds the baseline's.
		if inc.TrafficIDs > base.TrafficIDs {
			t.Fatalf("query %d: incremental traffic %d > baseline %d",
				qi, inc.TrafficIDs, base.TrafficIDs)
		}
		// The single highest-ranked document always survives trimming:
		// it is at the head of every sorted prefix it belongs to.
		if len(base.Hits) > 0 && len(inc.Hits) > 0 {
			if inc.Hits[0].Doc != base.Hits[0].Doc {
				t.Fatalf("query %d: top hit lost: baseline %d incremental %d",
					qi, base.Hits[0].Doc, inc.Hits[0].Doc)
			}
		}
	}
}

func TestIncrementalTrafficReduction(t *testing.T) {
	// The headline Table 6 effect: forwarding the top 10% cuts traffic
	// by roughly an order of magnitude on head-term queries.
	c, idx := buildFixture(t, 8)
	r := rng.New(9)
	queries, err := c.MakeQueries(r, 20, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	var baseTotal, incTotal int64
	for _, q := range queries {
		base, err := Baseline(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Incremental(idx, q, 0.10, DefaultForwardFloor)
		if err != nil {
			t.Fatal(err)
		}
		baseTotal += base.TrafficIDs
		incTotal += inc.TrafficIDs
	}
	reduction := float64(baseTotal) / float64(incTotal)
	if reduction < 4 {
		t.Fatalf("traffic reduction only %.1fx; paper reports ~10x for top-10%%", reduction)
	}
}

func TestIncrementalFloorForwardsEverything(t *testing.T) {
	c, idx := buildFixture(t, 10)
	// Find a rare term (tail of vocabulary) whose posting list is
	// small; the floor should then forward everything.
	var rare corpus.TermID = -1
	for term := c.NumTerms - 1; term >= 0; term-- {
		if n := c.DocFreq(corpus.TermID(term)); n > 0 && n < 15 {
			rare = corpus.TermID(term)
			break
		}
	}
	if rare < 0 {
		t.Skip("no rare term in fixture")
	}
	common := c.TopTerms(1)[0]
	inc, err := Incremental(idx, []corpus.TermID{rare, common}, 0.10, DefaultForwardFloor)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(idx, []corpus.TermID{rare, common})
	if err != nil {
		t.Fatal(err)
	}
	// With the whole first list below the floor, results must be
	// identical to the baseline.
	if len(inc.Hits) != len(base.Hits) {
		t.Fatalf("floor bypassed: %d vs %d hits", len(inc.Hits), len(base.Hits))
	}
}

func TestIncrementalValidation(t *testing.T) {
	_, idx := buildFixture(t, 11)
	if _, err := Incremental(idx, []corpus.TermID{0, 1}, 0, 20); err == nil {
		t.Error("accepted topFrac 0")
	}
	if _, err := Incremental(idx, []corpus.TermID{0, 1}, 1.5, 20); err == nil {
		t.Error("accepted topFrac > 1")
	}
	if _, err := Incremental(idx, []corpus.TermID{0, 1}, 0.1, -1); err == nil {
		t.Error("accepted negative floor")
	}
	if _, err := Incremental(idx, nil, 0.1, 20); err == nil {
		t.Error("accepted empty query")
	}
	if _, err := Baseline(idx, []corpus.TermID{9999}); err == nil {
		t.Error("accepted out-of-vocabulary term")
	}
}

func TestThreeWordQueries(t *testing.T) {
	c, idx := buildFixture(t, 15)
	r := rng.New(16)
	queries, err := c.MakeQueries(r, 10, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		base, err := Baseline(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		if base.PeerHops != 2 {
			t.Fatalf("query %d: %d hops for 3 words", qi, base.PeerHops)
		}
		truth := truthIntersection(c, q)
		if len(base.Hits) != len(truth) {
			t.Fatalf("query %d: 3-word baseline wrong: %d vs %d", qi, len(base.Hits), len(truth))
		}
		inc, err := Incremental(idx, q, 0.20, DefaultForwardFloor)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range inc.Hits {
			if !truth[h.Doc] {
				t.Fatalf("query %d: 3-word incremental spurious hit", qi)
			}
		}
	}
}

func BenchmarkIncrementalQuery(b *testing.B) {
	c, err := corpus.Generate(corpus.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ranks := make([]float64, len(c.Docs))
	for i := range ranks {
		ranks[i] = float64(i % 1000)
	}
	idx, err := Build(c, ranks, 50)
	if err != nil {
		b.Fatal(err)
	}
	top := c.TopTerms(2)
	q := []corpus.TermID{top[0], top[1]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Incremental(idx, q, 0.10, DefaultForwardFloor); err != nil {
			b.Fatal(err)
		}
	}
}
