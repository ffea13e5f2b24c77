// Package search implements keyword search over the P2P system: a
// distributed inverted index with pageranks stored alongside postings
// (section 2.4.2), the baseline full-transfer boolean search, the
// paper's incremental top-x% search (section 2.4.3).
package search

import (
	"fmt"
	"sort"

	"dpr/internal/corpus"
)

// Posting is one entry of a term's index partition: a document and its
// pagerank. The paper adds the pagerank to the index so hits can be
// relevance-sorted at the owning peer without fetching documents.
type Posting struct {
	Doc  uint32
	Rank float64
}

// Index is the distributed inverted index: each term's posting list
// lives on the peer that owns the term's hash on the DHT ring. A query
// is costed at one transfer for each term after the first, so which
// peer holds a term is not stored.
type Index struct {
	postings [][]Posting // term -> postings sorted by doc id
}

// Build constructs the index from a corpus and a pagerank vector
// indexed by document ID. numPeers, the number of peers the index is
// spread over, must be positive; no query reads which peer holds a
// term (see Index).
func Build(c *corpus.Corpus, ranks []float64, numPeers int) (*Index, error) {
	if numPeers < 1 {
		return nil, fmt.Errorf("search: need at least one peer")
	}
	if len(ranks) < len(c.Docs) {
		return nil, fmt.Errorf("search: %d ranks for %d documents", len(ranks), len(c.Docs))
	}
	idx := &Index{postings: make([][]Posting, c.NumTerms)}
	for t := 0; t < c.NumTerms; t++ {
		docs := c.DocsWithTerm(corpus.TermID(t))
		ps := make([]Posting, len(docs))
		for i, d := range docs {
			ps[i] = Posting{Doc: d, Rank: ranks[d]}
		}
		idx.postings[t] = ps
	}
	return idx, nil
}

// Postings returns term t's index partition (sorted by doc id).
// Shared slice; do not modify.
func (idx *Index) Postings(t corpus.TermID) []Posting {
	if t < 0 || int(t) >= len(idx.postings) {
		return nil
	}
	return idx.postings[t]
}

// UpdateRank records a freshly computed pagerank for a document in
// every partition that lists it — the paper's index-update message
// ("when the pagerank has been computed for a node, an index update
// message is sent"). It returns the number of partitions touched.
func (idx *Index) UpdateRank(doc uint32, rank float64) int {
	touched := 0
	for t := range idx.postings {
		ps := idx.postings[t]
		i := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
		if i < len(ps) && ps[i].Doc == doc {
			ps[i].Rank = rank
			touched++
		}
	}
	return touched
}

// byRankDesc sorts postings by pagerank, highest first; doc id breaks
// ties for determinism.
func byRankDesc(ps []Posting) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Rank != ps[b].Rank {
			return ps[a].Rank > ps[b].Rank
		}
		return ps[a].Doc < ps[b].Doc
	})
}

// intersectByDoc returns the postings of a whose documents also appear
// in b. Both inputs may be in any order.
func intersectByDoc(a, b []Posting) []Posting {
	inB := make(map[uint32]struct{}, len(b))
	for _, p := range b {
		inB[p.Doc] = struct{}{}
	}
	out := make([]Posting, 0, min(len(a), len(b)))
	for _, p := range a {
		if _, ok := inB[p.Doc]; ok {
			out = append(out, p)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
