package search

import (
	"fmt"

	"dpr/internal/corpus"
)

// Result reports one executed query.
type Result struct {
	Hits []Posting // final result set, sorted by pagerank descending

	// TrafficIDs counts document IDs shipped peer-to-peer plus the
	// final transfer to the user — the unit of the paper's Table 6.
	TrafficIDs int64

	PeerHops int // number of peer-to-peer transfers (query words - 1)
}

// DefaultForwardFloor is the paper's forwarding floor: "when the top
// x% of the documents falls below a threshold (we used 20), then all
// the results are forwarded along".
const DefaultForwardFloor = 20

// Baseline executes a boolean AND query with full posting-list
// transfer: the first term's peer ships every matching document ID to
// the second term's peer, and so on; the final set returns to the
// user. This is the no-pagerank strawman the paper's Table 6 compares
// against.
func Baseline(idx *Index, query []corpus.TermID) (Result, error) {
	if err := checkQuery(idx, query); err != nil {
		return Result{}, err
	}
	current := clonePostings(idx.Postings(query[0]))
	res := Result{}
	for _, term := range query[1:] {
		// Ship the running set to the next term's peer.
		res.TrafficIDs += int64(len(current))
		res.PeerHops++
		current = intersectByDoc(current, idx.Postings(term))
	}
	// Final transfer to the querying user.
	res.TrafficIDs += int64(len(current))
	byRankDesc(current)
	res.Hits = current
	return res, nil
}

// Incremental executes the paper's section 2.4.3 algorithm: at every
// peer the running result set is sorted by pagerank and only the top
// topFrac fraction is forwarded to the next term's peer (all of it
// when the trimmed set would fall below floor hits). The user receives
// the final trimmed set, most important documents first.
func Incremental(idx *Index, query []corpus.TermID, topFrac float64, floor int) (Result, error) {
	if err := checkQuery(idx, query); err != nil {
		return Result{}, err
	}
	if topFrac <= 0 || topFrac > 1 {
		return Result{}, fmt.Errorf("search: topFrac %v outside (0,1]", topFrac)
	}
	if floor < 0 {
		return Result{}, fmt.Errorf("search: negative floor %d", floor)
	}
	current := clonePostings(idx.Postings(query[0]))
	res := Result{}
	for _, term := range query[1:] {
		byRankDesc(current)
		current = trimTop(current, topFrac, floor)
		res.TrafficIDs += int64(len(current))
		res.PeerHops++
		current = intersectByDoc(current, idx.Postings(term))
	}
	byRankDesc(current)
	current = trimTop(current, topFrac, floor)
	res.TrafficIDs += int64(len(current))
	res.Hits = current
	return res, nil
}

// trimTop keeps the top fraction of a rank-sorted set, or everything
// when the fraction would fall below the forwarding floor.
func trimTop(ps []Posting, topFrac float64, floor int) []Posting {
	keep := int(topFrac * float64(len(ps)))
	if keep < floor {
		return ps
	}
	return ps[:keep]
}

func checkQuery(idx *Index, query []corpus.TermID) error {
	if len(query) == 0 {
		return fmt.Errorf("search: empty query")
	}
	for _, t := range query {
		if t < 0 || int(t) >= len(idx.postings) {
			return fmt.Errorf("search: term %d outside vocabulary", t)
		}
	}
	return nil
}

func clonePostings(ps []Posting) []Posting {
	out := make([]Posting, len(ps))
	copy(out, ps)
	return out
}
