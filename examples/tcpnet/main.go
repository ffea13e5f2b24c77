// Tcpnet: the distributed pagerank computation over real TCP sockets —
// the paper's closing vision of web servers cooperating to rank the
// documents they host, with no central server. Each peer is a TCP
// listener exchanging binary update batches. The cluster runs in this
// process: it detects global quiescence from its peers' update counters,
// read in process, when two successive reads show every shipped update
// folded, and reads each peer's ranks the same way.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"strings"
	"time"

	"dpr"
)

func main() {
	g, err := dpr.GenerateWebGraph(5000, 77)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d documents, %d links\n", g.NumNodes(), g.NumEdges())

	res, err := dpr.ComputePageRankOverTCP(g, dpr.Options{
		Peers: 8, Epsilon: 1e-6, Seed: 77,
	}, 2*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ran 8 TCP peers on localhost")
	fmt.Printf("quiesced in %v wall-clock; %d update messages, %d termination probes\n",
		res.Elapsed.Round(time.Millisecond), res.Messages, res.Probes)

	ref, err := dpr.CentralizedPageRank(g, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i := range ref {
		if rel := math.Abs(res.Ranks[i]-ref[i]) / ref[i]; rel > worst {
			worst = rel
		}
	}
	fmt.Printf("max relative error vs centralized solver: %.2e\n", worst)

	fmt.Println("\ntop 5 documents (ranked entirely over the network):")
	for _, dr := range dpr.TopDocuments(res.Ranks, 5) {
		fmt.Printf("  doc %-6d rank %8.3f\n", dr.Doc, dr.Rank)
	}

	crashDemo(g, ref)
	membershipDemo(g, ref)
	observabilityDemo(g)
}

// observabilityDemo reruns the computation with the debug listener
// enabled and watches it converge live from the outside: while the
// peers exchange updates, an ordinary HTTP client polls /metrics for
// the shipped/folded delta mass closing in on each other — the
// system's own conservation law acting as a progress bar. The same
// listener serves the convergence event trace at /trace and the Go
// profiler at /debug/pprof/.
func observabilityDemo(g *dpr.Graph) {
	fmt.Println("\n--- observability demo ---")
	cluster, err := dpr.NewTCPCluster(g, dpr.Options{
		Peers: 8, Epsilon: 1e-6, Seed: 77,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	base := "http://" + cluster.DebugAddr()
	fmt.Printf("debug listener: %s/metrics  %s/trace  %s/debug/pprof/\n", base, base, base)

	type runOut struct {
		res dpr.TCPResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := cluster.Run(2 * time.Minute)
		done <- runOut{res, err}
	}()

	// Poll the exposition endpoint like a scrape agent would.
	scrape := func(name string) float64 {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return math.NaN()
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var v float64
			if n, _ := fmt.Sscanf(sc.Text(), name+" %g", &v); n == 1 {
				return v
			}
		}
		return math.NaN()
	}
	traceLen := 0
	for i := 0; i < 3; i++ {
		time.Sleep(15 * time.Millisecond)
		shipped := scrape("wire_delta_shipped")
		folded := scrape("wire_delta_folded")
		if !math.IsNaN(shipped) {
			fmt.Printf("live scrape %d: delta shipped %.3f, folded %.3f (gap %.2e)\n",
				i+1, shipped, folded, math.Abs(shipped-folded))
		}
		// The same listener serves the event ring as JSON.
		if resp, err := http.Get(base + "/trace?n=0"); err == nil {
			var doc struct {
				Len int `json:"len"`
			}
			if json.NewDecoder(resp.Body).Decode(&doc) == nil {
				traceLen = doc.Len
			}
			resp.Body.Close()
		}
	}

	out := <-done
	if out.err != nil {
		log.Fatal(out.err)
	}
	fmt.Printf("quiesced in %v; final registry has the whole story:\n",
		out.res.Elapsed.Round(time.Millisecond))
	snap := cluster.TelemetryText()
	for _, line := range strings.Split(strings.TrimSpace(snap), "\n") {
		if strings.HasPrefix(line, "wire_delta_") || strings.HasPrefix(line, "wire_rank_mass") {
			fmt.Println("  " + line)
		}
	}
	fmt.Printf("trace ring held %d convergence events at last scrape\n", traceLen)
}

// crashDemo reruns the computation while crashing peers mid-flight:
// each victim is killed (checkpointing its durable state), left dead
// while its neighbours park updates for it in their store-and-retry
// queues, then restarted at a brand-new address. The final ranks must
// still match the centralized solver — nothing is lost.
func crashDemo(g *dpr.Graph, ref []float64) {
	fmt.Println("\n--- crash/recovery demo ---")
	cluster, err := dpr.NewTCPCluster(g, dpr.Options{Peers: 8, Epsilon: 1e-6, Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	type runOut struct {
		res dpr.TCPResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := cluster.Run(2 * time.Minute)
		done <- runOut{res, err}
	}()

	for _, victim := range []int{2, 5} {
		time.Sleep(20 * time.Millisecond)
		if err := cluster.Kill(victim); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("killed peer %d (state checkpointed, updates for it now parked at senders)\n", victim)
		time.Sleep(20 * time.Millisecond)
		if err := cluster.Restart(victim); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restarted peer %d from its checkpoint at a new address\n", victim)
	}

	out := <-done
	if out.err != nil {
		log.Fatal(out.err)
	}
	worst := 0.0
	for i := range ref {
		if rel := math.Abs(out.res.Ranks[i]-ref[i]) / ref[i]; rel > worst {
			worst = rel
		}
	}
	fmt.Printf("quiesced in %v despite 2 crashes; %d reconnects, %d retries, %d redeliveries\n",
		out.res.Elapsed.Round(time.Millisecond), out.res.Reconnects, out.res.Retries, out.res.Redeliveries)
	fmt.Printf("max relative error vs centralized solver: %.2e (unchanged by the crashes)\n", worst)
}

// membershipDemo reruns the computation while the membership itself
// changes: one peer leaves permanently mid-flight (its documents, rank
// state and parked updates migrate to its DHT ring successor) and a
// brand-new peer joins, pulling its key range from the current owners.
// The failure detector is armed, so a peer that simply dies would be
// evicted the same way without any operator call. The final ranks must
// still match the centralized solver — no rank mass is lost across the
// handoffs.
func membershipDemo(g *dpr.Graph, ref []float64) {
	fmt.Println("\n--- dynamic membership demo ---")
	cluster, err := dpr.NewTCPCluster(g, dpr.Options{
		Peers: 8, Epsilon: 1e-6, Seed: 77,
		Heartbeat: 50 * time.Millisecond, SuspectAfter: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	type runOut struct {
		res dpr.TCPResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := cluster.Run(2 * time.Minute)
		done <- runOut{res, err}
	}()

	time.Sleep(20 * time.Millisecond)
	if err := cluster.Leave(3); err != nil {
		log.Fatal(err)
	}
	fmt.Println("peer 3 left permanently (documents migrated to its ring successor)")
	time.Sleep(20 * time.Millisecond)
	slot, err := cluster.Join()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("peer %d joined mid-computation (took over its key range from the owners)\n", slot)

	out := <-done
	if out.err != nil {
		log.Fatal(out.err)
	}
	worst := 0.0
	for i := range ref {
		if rel := math.Abs(out.res.Ranks[i]-ref[i]) / ref[i]; rel > worst {
			worst = rel
		}
	}
	fmt.Printf("quiesced with %d live peers (%d slots ever); %d leaves, %d joins, %d documents migrated\n",
		cluster.NumLive(), cluster.NumPeers(), out.res.Leaves, out.res.Joins, out.res.Migrated)
	fmt.Printf("%d misrouted updates forwarded to their new owner, %d lost\n",
		out.res.Forwarded, out.res.Misdropped)
	fmt.Printf("max relative error vs centralized solver: %.2e (unchanged by the churn)\n", worst)
}
