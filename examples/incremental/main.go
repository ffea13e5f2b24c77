// Incremental: documents enter and leave a live network and the
// pageranks re-converge by propagating increments — no global
// recompute (the paper's section 3.1 / 4.7). The first part replays
// the paper's Figure 2 example exactly; the second inserts and deletes
// documents in a 5,000-document network and shows how few passes the
// re-convergence takes.
package main

import (
	"fmt"
	"log"

	"dpr"
)

func main() {
	// --- Figure 2: G links to H, I, J; H links to K, L. ---
	// Inserting G with pagerank 1 sends 1/3 to each of H, I, J; H
	// forwards 1/6 to K and L; below the threshold the wave stops.
	fig2 := dpr.GraphFromLinks([][]dpr.NodeID{
		{1, 2, 3}, // G -> H, I, J
		{4, 5},    // H -> K, L
		{}, {}, {}, {},
	})
	names := []string{"G", "H", "I", "J", "K", "L"}
	s, err := dpr.NewSession(fig2, dpr.Options{Peers: 3, Epsilon: 1e-9, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 2 graph ranks after initial convergence:")
	for i, r := range s.Ranks() {
		fmt.Printf("  %s: %.4f\n", names[i], r)
	}

	// --- Dynamic inserts and deletes on a realistic graph. ---
	g, err := dpr.GenerateWebGraph(5000, 21)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := dpr.NewSession(g, dpr.Options{Peers: 100, Epsilon: 1e-6, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	initialPasses := sess.Passes()
	fmt.Printf("\n%d-document network converged in %d passes\n", g.NumNodes(), initialPasses)

	targets := []dpr.NodeID{10, 20, 30}
	before := append([]float64(nil), sess.Ranks()...)
	id, err := sess.InsertDocument(targets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted document %d linking to %v: re-converged in %d passes (vs %d initially)\n",
		id, targets, sess.Passes()-initialPasses, initialPasses)
	for _, d := range targets {
		fmt.Printf("  doc %d rank: %.4f -> %.4f\n", d, before[d], sess.Ranks()[d])
	}

	afterInsert := sess.Passes()
	if err := sess.RemoveDocument(100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("removed doc 100: re-converged in %d passes; its rank is now %.1f\n",
		sess.Passes()-afterInsert, sess.Ranks()[100])
}
