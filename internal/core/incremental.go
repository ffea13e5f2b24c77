package core

import (
	"fmt"
	"math"

	"dpr/internal/graph"
)

// PropagationResult measures how far a single document insert's rank
// increments travel, the metrics of the paper's Table 4.
type PropagationResult struct {
	PathLength int   // hops traversed by the deepest message sent
	Coverage   int   // distinct documents that received a message
	Messages   int64 // total update messages generated
}

// MeasureInsertPropagation performs the paper's section 4.7
// experiment: a document with pagerank `initial` is inserted with one
// out-link to start's position — equivalently, start's rank is bumped
// by the initial value — and the resulting increments fan out along
// out-links, each hop multiplying by damping/outdeg, until increments
// fall below eps and no more messages are generated.
//
// The wave is level-synchronous: increments arriving at the same node
// in the same hop merge before forwarding, exactly like messages
// landing within one pass. Coverage counts distinct documents that
// received at least one message; path length is the hop index of the
// last message sent.
func MeasureInsertPropagation(g graph.Linker, start graph.NodeID, initial, damping, eps float64) PropagationResult {
	if damping <= 0 || damping > 1 {
		panic(fmt.Sprintf("core: damping %v outside (0,1]", damping))
	}
	if eps <= 0 {
		panic("core: eps must be positive")
	}
	res := PropagationResult{}
	covered := make(map[graph.NodeID]struct{})
	cur := graph.CursorFor(g)
	// current holds per-document increments at this hop depth.
	current := map[graph.NodeID]float64{start: initial}
	depth := 0
	for len(current) > 0 {
		depth++
		next := make(map[graph.NodeID]float64)
		sent := false
		for d, inc := range current {
			if math.Abs(inc) <= eps {
				continue // below threshold: no further messages
			}
			links := cur.OutLinks(d)
			if len(links) == 0 {
				continue
			}
			share := damping * inc / float64(len(links))
			for _, t := range links {
				next[t] += share
				covered[t] = struct{}{}
				res.Messages++
				sent = true
			}
		}
		if sent {
			res.PathLength = depth
		}
		current = next
	}
	res.Coverage = len(covered)
	return res
}
