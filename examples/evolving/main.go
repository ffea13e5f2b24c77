// Evolving: a P2P document network whose topology changes continuously
// — documents published, edited (links added/removed) and deleted —
// with pageranks staying continuously accurate through incremental
// re-convergence. This is the paper's headline claim ("incremental
// update enables continuously accurate pageranks whereas the ...
// centralized web crawl and computation ... requires several days")
// exercised end to end.
package main

import (
	"fmt"
	"log"
	"math"

	"dpr"
)

func main() {
	g, err := dpr.GenerateWebGraph(2000, 55)
	if err != nil {
		log.Fatal(err)
	}
	s, err := dpr.NewSession(g, dpr.Options{Peers: 50, Epsilon: 1e-6, Seed: 55})
	if err != nil {
		log.Fatal(err)
	}
	initialPasses := s.Passes()
	initialMsgs := s.NetworkMessages()
	fmt.Printf("initial network: %d documents, converged in %d passes, %d network messages\n\n",
		s.NumDocuments(), initialPasses, initialMsgs)

	// A publishing burst: 20 new documents, each linking to a few
	// existing ones, some getting linked back.
	var added []dpr.NodeID
	for i := 0; i < 20; i++ {
		id, err := s.InsertDocument([]dpr.NodeID{
			dpr.NodeID(i * 7 % 2000), dpr.NodeID(i * 13 % 2000),
		})
		if err != nil {
			log.Fatal(err)
		}
		added = append(added, id)
		// Every third new doc gets an in-link from an old page.
		if i%3 == 0 {
			if err := s.AddLink(dpr.NodeID(i*31%2000), id); err != nil {
				log.Fatal(err)
			}
		}
	}
	burstMsgs := s.NetworkMessages() - initialMsgs
	fmt.Printf("published 20 documents (7 gaining in-links): %d network messages — %.0f per change\n",
		burstMsgs, float64(burstMsgs)/27)
	fmt.Printf("  (vs %d messages for the initial full computation)\n", initialMsgs)

	// An editing wave: rewire 10 old documents.
	editStart := s.NetworkMessages()
	for i := 0; i < 10; i++ {
		from := dpr.NodeID(i * 97 % 2000)
		if err := s.AddLink(from, added[i%len(added)]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("rewired 10 documents toward the new content: %d messages\n",
		s.NetworkMessages()-editStart)

	// Deletions: retire 5 old documents.
	delStart := s.NetworkMessages()
	for i := 0; i < 5; i++ {
		if err := s.RemoveDocument(dpr.NodeID(100 + i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("deleted 5 documents: %d messages\n\n", s.NetworkMessages()-delStart)

	// The continuously maintained ranks equal a from-scratch
	// centralized solve of the final topology — without ever having
	// recomputed globally.
	ref, err := dpr.CentralizedPageRank(s.Snapshot(), 0.85)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i := range ref {
		if s.Ranks()[i] == 0 && ref[i] > 0 {
			continue // deleted documents
		}
		denom := math.Max(ref[i], 1)
		if rel := math.Abs(s.Ranks()[i]-ref[i]) / denom; rel > worst {
			worst = rel
		}
	}
	fmt.Printf("max deviation from a full centralized recompute: %.2e\n", worst)
	fmt.Println("(the network never recomputed globally — each change cost a small")
	fmt.Println(" fraction of the full computation, touching only the affected region)")
}
