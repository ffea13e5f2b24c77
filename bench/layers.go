package main

import (
	"bytes"
	"fmt"
	"math"

	"dpr/internal/core"
	"dpr/internal/dht"
	"dpr/internal/engine"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/wire"
)

// The replays below run once per traced run, after the repetitions.
// Each calls one layer's exported API on the workload's own inputs,
// outside any end-to-end timing, and writes what it measured into m.
// A replay only runs on the workloads whose end-to-end numbers its
// layer can move; README.md has the map.

// sweepOutLinks reads every node's out-links in ascending order, the
// access pattern of a dense pass, and returns nanoseconds per edge.
func (in *input) sweepOutLinks(name string, g graph.Linker) float64 {
	cur := graph.CursorFor(g)
	var edges int64
	var sink graph.NodeID
	d := in.tr.timed(name, in.root, func(int) {
		for v := 0; v < g.NumNodes(); v++ {
			for _, t := range cur.OutLinks(graph.NodeID(v)) {
				sink ^= t
				edges++
			}
		}
	})
	if sink == -1 || edges == 0 { // keeps sink live; a node id is never -1
		return 0
	}
	return float64(d.Nanoseconds()) / float64(edges)
}

func (in *input) replayGraph(m sample) {
	m["graph.gen_s"] = in.genS
	m["graph.outlinks_ns_per_edge"] = in.sweepOutLinks("graph.OutLinks sweep", in.g)
	m["solver.power_s"] = in.powerS
	m["solver.power_iters"] = float64(in.powerIters)
}

func (in *input) replayCSR(m sample) error {
	cg, err := in.openCSR()
	if err != nil {
		return err
	}
	defer cg.Close()
	m["csr.outlinks_ns_per_edge"] = in.sweepOutLinks("csr.OutLinks sweep", cg)
	m["csr.bytes_per_edge"] = cg.TotalBytesPerEdge()
	return nil
}

// replayRetry pushes every cross-peer out-link of peer 0's documents
// through a RetryQueue the way a sender with a stalled destination
// does, then drains it in credit-sized batches.
func (in *input) replayRetry(m sample, net *p2p.Network) {
	q := p2p.NewRetryQueue()
	calls := 0
	deferD := in.tr.timed("p2p.RetryQueue.DeferMerge", in.root, func(int) {
		for _, d := range net.Docs(0) {
			for _, t := range in.g.OutLinks(d) {
				if dest := net.PeerOf(t); dest != 0 {
					q.DeferMerge(dest, p2p.Update{Doc: t, Delta: 1})
					calls++
				}
			}
		}
	})
	queued := q.Len()
	drainD := in.tr.timed("p2p.RetryQueue.DrainN", in.root, func(int) {
		for _, dest := range q.Dests() {
			for len(q.DrainN(dest, 4096)) > 0 {
			}
		}
	})
	if calls == 0 || queued == 0 {
		return
	}
	m["p2p.retry_defermerge_ns_per_update"] = float64(deferD.Nanoseconds()) / float64(calls)
	m["p2p.retry_drain_ns_per_update"] = float64(drainD.Nanoseconds()) / float64(queued)
	m["p2p.retry_merge_ratio"] = float64(q.Merges()) / float64(calls)
}

// replayDHT rebuilds the membership ring and places every document's
// key on it as wire.NewCluster does, then routes 10k lookups.
func (in *input) replayDHT(m sample, net *p2p.Network) error {
	ring := dht.NewRing()
	nodes := make([]*dht.Node, in.w.peers)
	var err error
	m["dht.ring_build_s"] = in.tr.timed("dht.Ring.AddPeer", in.root, func(int) {
		for i := range nodes {
			if nodes[i], err = ring.AddPeer(fmt.Sprintf("peer-%d", i)); err != nil {
				return
			}
		}
	}).Seconds()
	if err != nil {
		return err
	}
	place := in.tr.timed("dht.Ring.PlaceKey", in.root, func(int) {
		for d := 0; d < in.w.docs && err == nil; d++ {
			id := graph.NodeID(d)
			err = ring.PlaceKey(nodes[net.PeerOf(id)], dht.GUIDFromUint64(uint64(d)).ID(), id)
		}
	})
	if err != nil {
		return err
	}
	m["dht.placekey_ns_per_key"] = float64(place.Nanoseconds()) / float64(in.w.docs)

	const lookups = 10_000
	r := rng.New(in.seed)
	hops := 0
	in.tr.timed("dht.Ring.Lookup", in.root, func(int) {
		for i := 0; i < lookups && err == nil; i++ {
			var h int
			_, h, err = ring.Lookup(dht.ID(r.Uint64()), nodes[r.Intn(len(nodes))])
			hops += h
		}
	})
	if err != nil {
		return err
	}
	m["dht.lookup_hops_mean"] = float64(hops) / lookups
	return nil
}

// engineConfig is the in-process engines' configuration on the
// workload's graph and placement.
func (in *input) engineConfig(net *p2p.Network, eps float64) engine.Config {
	return engine.Config{Graph: in.g, Net: net, Opt: core.Options{Damping: damping, Epsilon: eps}, Seed: in.seed}
}

// replayChaotic solves the graph with the in-process chaotic stepper:
// the algorithm the wire ranker hardwires, with no sockets under it.
func (in *input) replayChaotic(m sample, net *p2p.Network) error {
	e, err := engine.New("chaotic", in.engineConfig(net, epsilon))
	if err != nil {
		return err
	}
	var res core.Result
	d := in.tr.timed("engine.Drive chaotic", in.root, func(int) { res = engine.Drive(e, 0) })
	if !res.Converged {
		return fmt.Errorf("chaotic engine did not converge")
	}
	m["chaotic.solve_s"] = d.Seconds()
	m["chaotic.folds"] = float64(res.Counters.Total())
	return nil
}

// replayDiffusion steps the diffusion engine until its 99th-percentile
// error is no worse than the wire run's, so the two are compared at
// equal rank quality.
func (in *input) replayDiffusion(m sample, net *p2p.Network, targetP99 float64) error {
	// An epsilon far below the target keeps the engine's own stopping
	// rule out of the way.
	e, err := engine.New("diffusion", in.engineConfig(net, 1e-9))
	if err != nil {
		return err
	}
	allowed := in.w.docs / 100 // documents that may sit above the target
	reached := false
	d := in.tr.timed("engine.Step diffusion", in.root, func(int) {
		for step := 0; step < maxPass && !reached; step++ {
			e.Step()
			above := 0
			for i, x := range e.Ranks() {
				if math.Abs(x-in.ref[i]) > targetP99*in.ref[i] {
					above++
				}
			}
			reached = above <= allowed
		}
	})
	if !reached {
		return fmt.Errorf("diffusion engine never reached rank_err_p99 %.3g", targetP99)
	}
	m["engine.diffusion_solve_s"] = d.Seconds()
	m["engine.diffusion_msgs_per_doc"] = float64(e.Counters().InterPeerMsgs) / float64(in.w.docs)
	return nil
}

// replayCheckpoint encodes and decodes a snapshot holding one peer's
// share of ranker rows, the bulk of what a crash, restart or departure
// moves.
func (in *input) replayCheckpoint(m sample, net *p2p.Network) error {
	docs := net.Docs(2)
	snap := &wire.PeerSnapshot{ID: 2, Docs: docs}
	for _, d := range docs {
		snap.Rank = append(snap.Rank, in.ref[d])
		snap.Acc = append(snap.Acc, in.ref[d])
		snap.Last = append(snap.Last, in.ref[d])
	}
	var buf bytes.Buffer
	var err error
	enc := in.tr.timed("wire.EncodeSnapshot", in.root, func(int) { err = wire.EncodeSnapshot(snap, &buf) })
	if err != nil {
		return err
	}
	size := buf.Len()
	dec := in.tr.timed("wire.DecodeSnapshot", in.root, func(int) { _, err = wire.DecodeSnapshot(&buf) })
	if err != nil {
		return err
	}
	n := float64(len(docs))
	m["wire.ckpt_encode_ns_per_doc"] = float64(enc.Nanoseconds()) / n
	m["wire.ckpt_decode_ns_per_doc"] = float64(dec.Nanoseconds()) / n
	m["wire.ckpt_bytes_per_doc"] = float64(size) / n
	return nil
}

// replays runs every replay that applies to the workload and returns
// what they measured. solveS and errP99 are the medians of the traced
// repetitions, hash the rank hash they all produced. Each replay that
// can fail is recorded in o as one operation.
func (in *input) replays(o *ops, solveS, errP99 float64, hash uint64) sample {
	m := sample{}
	try := func(what string, err error) {
		if err != nil {
			o.record(what, err.Error())
		} else {
			o.record(what)
		}
	}
	in.replayGraph(m)
	m["core.slowdown_x"] = solveS / in.powerS

	if in.w.wire {
		net := p2p.NewNetwork(in.w.peers)
		m["p2p.assign_s"] = in.tr.timed("p2p.AssignRandom", in.root, func(int) {
			// The same draws wire.NewCluster makes from the same seed.
			net.AssignRandom(in.g, rng.New(in.seed))
		}).Seconds()
		in.replayRetry(m, net)
		try("dht replay", in.replayDHT(m, net))
		try("chaotic replay", in.replayChaotic(m, net))
		if s := m["chaotic.solve_s"]; s > 0 {
			m["wire.overhead_x"] = solveS / s
		}
		try("diffusion replay", in.replayDiffusion(m, net, errP99))
		if in.w.faults {
			try("checkpoint replay", in.replayCheckpoint(m, net))
		}
		return m
	}

	// The pass engine promises bit-identical ranks whatever the
	// adjacency representation and the worker count; the extra solves
	// below check both and time the parallel one.
	sameRanks := func(what string, r rep) {
		if r.hash != hash {
			r.failf("rank hash %016x, the workload's repetitions gave %016x", r.hash, hash)
		}
		o.record(what, r.fails...)
	}
	if in.w.csr {
		try("csr replay", in.replayCSR(m))
		plain := *in
		plain.w.csr = false
		sameRanks("solve over the plain graph", plain.passRep(false, 0))
	}
	par := in.passRep(false, -1)
	sameRanks("solve with GOMAXPROCS workers", par)
	if s := par.m["solve_s"]; s > 0 {
		m["core.parallel_speedup_x"] = solveS / s
	}
	return m
}
