// Command dprnet runs the live pagerank network: a cluster of peers
// on localhost TCP sockets exchanging update messages with no global
// synchronization — the system the paper describes and simulates. It
// reports convergence statistics and verifies the result against the
// centralized solver.
//
// Usage:
//
//	dprnet -docs 10000 -peers 64 -eps 1e-3
//	dprnet -telemetry                     # serve /metrics, /trace and pprof, dump the registry on exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"dpr"
)

func main() {
	docs := flag.Int("docs", 10000, "number of documents")
	peers := flag.Int("peers", 64, "number of peers")
	eps := flag.Float64("eps", 1e-3, "relative-error send threshold")
	seed := flag.Uint64("seed", 42, "graph and placement seed")
	topK := flag.Int("top", 10, "top documents to print")
	telemetryFlag := flag.Bool("telemetry", false, "serve /metrics, /trace and pprof during the run and dump the registry on exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dprnet: %v\n", err)
		os.Exit(1)
	}

	g, err := dpr.GenerateWebGraph(*docs, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: %d documents, %d links; %d peers, eps=%g\n",
		g.NumNodes(), g.NumEdges(), *peers, *eps)

	opt := dpr.Options{Peers: *peers, Epsilon: *eps, Seed: *seed}
	if *telemetryFlag {
		opt.DebugAddr = "127.0.0.1:0"
	}
	cluster, err := dpr.NewTCPCluster(g, opt)
	if err != nil {
		fail(err)
	}
	if addr := cluster.DebugAddr(); addr != "" {
		fmt.Printf("debug listener: http://%s/metrics  /trace  /debug/pprof/\n", addr)
	}
	res, err := cluster.Run(10 * time.Minute)
	if err != nil {
		cluster.Close()
		fail(err)
	}
	fmt.Printf("quiesced in %v over TCP; %d update messages, %d termination probes\n",
		res.Elapsed.Round(time.Millisecond), res.Messages, res.Probes)
	if *telemetryFlag {
		fmt.Println("--- telemetry ---")
		fmt.Print(cluster.TelemetryText())
	}

	ref, err := dpr.CentralizedPageRank(g, 0.85)
	if err != nil {
		fail(err)
	}
	worst, sum := 0.0, 0.0
	for i := range ref {
		rel := math.Abs(res.Ranks[i]-ref[i]) / ref[i]
		sum += rel
		if rel > worst {
			worst = rel
		}
	}
	fmt.Printf("vs centralized solver: max relative error %.2e, avg %.2e\n",
		worst, sum/float64(len(ref)))

	fmt.Printf("\ntop %d documents by pagerank:\n", *topK)
	for _, dr := range dpr.TopDocuments(res.Ranks, *topK) {
		fmt.Printf("  doc %-8d rank %.4f (in-links %d)\n", dr.Doc, dr.Rank, g.InDegree(dr.Doc))
	}
}
