package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dpr/internal/core"
	"dpr/internal/csr"
	"dpr/internal/graph"
	"dpr/internal/metrics"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
	"dpr/internal/wire"
)

// The paper's operating point (section 4.8) and the limits a
// repetition is checked against. The quality limits are the paper's
// "99% of documents under 1%" with about 2.5x headroom over what the
// engines deliver at this epsilon.
const (
	damping = 0.85
	epsilon = 1e-3

	runTimeout  = 120 * time.Second
	maxErrP99   = 2e-2
	maxErrMean  = 5e-3
	passPeers   = 500
	leakGrace   = time.Second
	setupRounds = 5     // set-ups per run behind the setup_s median
	maxPass     = 10000 // core.Options' default pass cap, which PassEngine.Run applies
)

// workload is one row of the README's workload table.
type workload struct {
	name   string
	docs   int
	peers  int
	wire   bool // loopback TCP cluster; otherwise the in-process pass engine
	faults bool // behind a FaultTransport, with a peer joining mid-solve
	csr    bool // adjacency read through the mmap'd compressed graph
}

var workloads = []workload{
	{name: "wire-8", docs: 500_000, peers: 8, wire: true},
	{name: "wire-32", docs: 500_000, peers: 32, wire: true},
	{name: "wire-faults", docs: 500_000, peers: 8, wire: true, faults: true},
	{name: "pass-plain", docs: 1_000_000, peers: passPeers},
	{name: "pass-csr", docs: 1_000_000, peers: passPeers, csr: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is the named measurements of one repetition or one replay.
type sample map[string]float64

// input is everything a run derives from its seed before measuring:
// the graph, the centralized reference ranks R_c every repetition is
// scored against, and the tracer its spans go to.
type input struct {
	w    workload
	seed uint64
	g    *graph.Graph
	ref  []float64
	tr   *tracer // nil when tracing is off
	root int     // span the repetitions are recorded under

	genS, powerS float64
	powerIters   int
	errs         []float64 // per-document error buffer, reused
}

// newInput generates the workload's graph and solves it centrally.
// Neither belongs to any timed metric; both are reported per layer.
func newInput(w workload, seed uint64, tr *tracer) (*input, error) {
	in := &input{w: w, seed: seed, tr: tr}
	in.root = tr.begin("run", noSpan)
	var err error
	in.genS = tr.timed("graph.GeneratePowerLaw", in.root, func(int) {
		in.g, err = graph.GeneratePowerLaw(graph.DefaultPowerLawConfig(w.docs, seed))
	}).Seconds()
	if err != nil {
		return nil, fmt.Errorf("generate graph: %w", err)
	}
	var res solver.Result
	in.powerS = tr.timed("solver.Power", in.root, func(int) {
		res, err = solver.Power(in.g, solver.Config{Damping: damping, Tol: 1e-12})
	}).Seconds()
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	if !res.Converged {
		return nil, fmt.Errorf("reference solve did not converge in %d iterations", res.Iterations)
	}
	in.ref, in.powerIters = res.Ranks, res.Iterations
	in.errs = make([]float64, w.docs)
	return in, nil
}

// rep is the outcome of one repetition: its measurements, and every
// correctness check it failed (none on a good repetition).
type rep struct {
	m     sample
	fails []string
	hash  uint64 // of the rank vector's bits, for the csr-equals-plain check
}

func (r *rep) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// run does one repetition of the workload and adds the process's
// peak resident set while it ran.
func (in *input) run(traced bool) rep {
	resetPeakRSS()
	var r rep
	if in.w.wire {
		r = in.wireRep(traced)
	} else {
		r = in.passRep(traced, 0)
	}
	rss, err := peakRSSMB()
	if err != nil {
		r.failf("peak rss: %v", err)
	}
	r.m["peak_rss_mb"] = rss
	return r
}

// checkRanks scores ranks against the reference and records the
// quality metric and checks shared by every workload.
func (in *input) checkRanks(r *rep, ranks []float64) {
	if len(ranks) != len(in.ref) {
		r.failf("got %d ranks for %d documents", len(ranks), len(in.ref))
		return
	}
	sum := 0.0
	for i, x := range ranks {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			r.failf("rank[%d] = %v is not finite and positive", i, x)
			return
		}
		e := math.Abs(x-in.ref[i]) / in.ref[i]
		in.errs[i] = e
		sum += e
	}
	sort.Float64s(in.errs)
	p99, mean := metrics.Quantile(in.errs, 0.99), sum/float64(len(ranks))
	r.m["rank_err_p99"] = p99
	if p99 > maxErrP99 {
		r.failf("rank_err_p99 %.3g above %.3g", p99, maxErrP99)
	}
	if mean > maxErrMean {
		r.failf("mean relative rank error %.3g above %.3g", mean, maxErrMean)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, x := range ranks {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	r.hash = h.Sum64()
}

// checkGoroutines fails the repetition if, a second after everything
// was closed, more goroutines run than before its set-up.
func checkGoroutines(r *rep, before int) {
	deadline := time.Now().Add(leakGrace)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			r.failf("goroutines: %d before the repetition, %d a second after close", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// faultConfig is wire-faults' per-write fault mix, with dice seeded
// from the run's seed.
func faultConfig(seed uint64) wire.FaultConfig {
	return wire.FaultConfig{
		Seed:     seed ^ 0xfa17,
		DropProb: 0.01, ResetProb: 0.01, DupProb: 0.01,
		DelayProb: 0.02, MaxDelay: 2 * time.Millisecond,
	}
}

// newCluster builds the workload's cluster over a fresh counting
// transport (and fault transport, on wire-faults).
func (in *input) newCluster(m sample, timedIO bool) (*wire.Cluster, *countingTransport, *wire.FaultTransport, error) {
	ct := newCountingTransport(wire.TCPDialer(), timedIO)
	var tp wire.Transport = ct
	var ft *wire.FaultTransport
	if in.w.faults {
		ft = wire.NewFaultTransport(ct, faultConfig(in.seed))
		tp = ft
	}
	var c *wire.Cluster
	var err error
	d := in.tr.timed("wire.NewCluster", in.root, func(int) {
		c, err = wire.NewCluster(in.g, wire.ClusterConfig{
			Peers: in.w.peers, Damping: damping, Epsilon: epsilon, Seed: in.seed, Transport: tp,
		})
	})
	m["setup_s"] = d.Seconds()
	m["wire.newcluster_s"] = d.Seconds()
	return c, ct, ft, err
}

// wireRep solves once on a loopback TCP cluster.
func (in *input) wireRep(traced bool) (r rep) {
	r = rep{m: sample{}}
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	c, ct, ft, err := in.newCluster(r.m, traced)
	if err != nil {
		r.failf("NewCluster: %v", err)
		return r
	}
	defer checkGoroutines(&r, goroutines)
	defer c.Close() // Run closes on success; this covers its error path

	var script []faultEvent
	if in.w.faults {
		script = faultScript(in.w.docs)
	}
	var w *watcher
	if traced || len(script) > 0 {
		w = newWatcher(c, script, traced, in.tr)
	}
	var res wire.ClusterResult
	var runEnd time.Time
	solve := in.tr.timed("wire.Cluster.Run", in.root, func(id int) {
		if w != nil {
			w.parent = id
			w.start()
		}
		res, err = c.Run(runTimeout)
		runEnd = time.Now()
	})
	if w != nil {
		w.wait()
	}
	if err != nil {
		r.failf("Run: %v", err)
		return r
	}

	docs := float64(in.w.docs)
	r.m["solve_s"] = solve.Seconds()
	r.m["msgs_per_doc"] = float64(res.Messages) / docs
	r.m["wire_bytes_per_doc"] = float64(ct.bytesTotal()) / docs
	in.checkRanks(&r, res.Ranks)

	conservation := math.Abs(res.DeltaShipped-res.DeltaFolded) / math.Max(1, res.DeltaShipped)
	if conservation > 1e-6 {
		r.failf("delta shipped %.9g != folded %.9g", res.DeltaShipped, res.DeltaFolded)
	}
	if res.Misdropped != 0 {
		r.failf("%d updates dropped with no owner", res.Misdropped)
	}
	if in.w.faults {
		if w.err != nil {
			r.failf("%v", w.err)
		}
		if w.fired != len(script) {
			r.failf("only %d of %d fault-script events fired before quiescence", w.fired, len(script))
		}
		if fs := ft.Stats(); fs.Drops == 0 || fs.Resets == 0 || fs.Dups == 0 || fs.Delays == 0 {
			r.failf("a fault class was never injected: %+v", fs)
		}
		if live := c.NumLive(); live != in.w.peers+1 {
			r.failf("%d live peers at the end, want the %d it started with and the one that joined", live, in.w.peers)
		}
	}

	writes := float64(ct.writes.Load())
	r.m["wire.run_s"] = solve.Seconds()
	r.m["wire.bytes_total"] = float64(ct.bytesTotal())
	r.m["wire.writes_total"] = writes
	r.m["wire.bytes_per_write"] = float64(ct.bytesWritten.Load()) / writes
	r.m["wire.bytes_per_update"] = float64(ct.bytesTotal()) / float64(res.Messages)
	r.m["wire.write_busy_s"] = float64(ct.writeBusyNs.Load()) / 1e9
	r.m["wire.write_ns_per_write"] = float64(ct.writeBusyNs.Load()) / writes
	r.m["wire.read_wait_s"] = float64(ct.readWaitNs.Load()) / 1e9
	r.m["wire.dials_total"] = float64(ct.dials.Load())
	r.m["wire.dial_ms_p50"] = ct.dialMsP50()
	r.m["wire.coalesce_ratio"] = float64(res.Coalesced) / float64(res.Messages+res.Coalesced)
	r.m["wire.credit_stalls"] = float64(res.CreditStalls)
	r.m["wire.shed_coalesced"] = float64(res.ShedCoalesced)
	r.m["wire.slow_peer"] = float64(res.SlowPeer)
	r.m["wire.probe_rounds"] = float64(res.Probes)
	r.m["wire.retries"] = float64(res.Retries)
	r.m["wire.reconnects"] = float64(res.Reconnects)
	r.m["wire.redeliveries"] = float64(res.Redeliveries)
	r.m["wire.dup_dropped"] = float64(res.DupDropped)
	r.m["wire.retransmit_ratio"] = float64(res.Retries) / writes
	r.m["wire.forwarded"] = float64(res.Forwarded)
	r.m["wire.docs_migrated"] = float64(res.Migrated)
	r.m["wire.delta_conservation_err"] = conservation
	for _, h := range c.TelemetrySnapshot().Hists {
		if h.Name == "wire_send_latency_seconds" {
			r.m["wire.send_latency_p50_ms"] = 1e3 * histQuantile(h.Bounds, h.Counts, 0.50)
			r.m["wire.send_latency_p99_ms"] = 1e3 * histQuantile(h.Bounds, h.Counts, 0.99)
		}
	}
	if w != nil {
		for name, d := range w.eventMs {
			r.m["wire."+name+"_ms"] = d
		}
		r.m["wire.inbox_occupancy_peak"] = w.inboxPeak
		r.m["wire.unacked_frames_peak"] = w.unackedPeak
		r.m["wire.quiesce_lag_s"] = w.quiesceLag(runEnd, res.Messages).Seconds()
		r.m["telemetry.snapshot_ms"] = summarize(w.snapshotMs).Median
	}
	return r
}

// passEngine places the documents and builds the pass engine (over
// the mmap'd compressed graph on pass-csr), recording the set-up time
// and its per-layer parts in m. release undoes whatever it opened.
func (in *input) passEngine(m sample, workers int) (e *core.PassEngine, release func(), err error) {
	release = func() {}
	total := in.tr.timed("pass.setup", in.root, func(id int) {
		net := p2p.NewNetwork(in.w.peers)
		m["p2p.assign_s"] = in.tr.timed("p2p.AssignRandom", id, func(int) {
			net.AssignRandom(in.g, rng.New(in.seed))
		}).Seconds()
		var linker graph.Linker = in.g
		if in.w.csr {
			var cg *csr.Graph
			m["csr.encode_s"] = in.tr.timed("csr.encode", id, func(int) { cg, err = in.openCSR() }).Seconds()
			if err != nil {
				return
			}
			release = func() { cg.Close() }
			linker = cg
		}
		in.tr.timed("core.NewPassEngine", id, func(int) {
			e, err = core.NewPassEngine(linker, net, nil, core.Options{Damping: damping, Epsilon: epsilon, Workers: workers})
		})
	})
	m["setup_s"] = total.Seconds()
	return e, release, err
}

// openCSR compresses the graph, writes it out and maps it back in,
// which is how a graph too big for memory would be solved. The file
// is unlinked once mapped; the mapping keeps it alive until Close.
func (in *input) openCSR() (*csr.Graph, error) {
	enc, err := csr.FromLinker(in.g)
	if err != nil {
		return nil, fmt.Errorf("csr encode: %w", err)
	}
	path := filepath.Join(scratchDir, fmt.Sprintf("%s-%d.dprz", in.w.name, in.seed))
	if err := enc.WriteFile(path); err != nil {
		return nil, fmt.Errorf("csr write: %w", err)
	}
	defer os.Remove(path)
	cg, err := csr.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("csr open: %w", err)
	}
	return cg, nil
}

// passRep solves once with the pass engine. A traced repetition steps
// the passes itself, so that each is a span and the allocations of
// the warm passes can be counted.
func (in *input) passRep(traced bool, workers int) (r rep) {
	r = rep{m: sample{}}
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	e, release, err := in.passEngine(r.m, workers)
	defer release()
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	defer checkGoroutines(&r, goroutines)

	var res core.Result
	var solve time.Duration
	if !traced {
		solve = in.tr.timed("core.PassEngine.Run", in.root, func(int) { res = e.Run() })
	} else {
		passMs := make([]float64, 0, 256)
		var warmStart, warmEnd runtime.MemStats
		solve = in.tr.timed("core.PassEngine.Run", in.root, func(id int) {
			for !e.Converged() && e.Pass() < maxPass {
				if e.Pass() == 1 {
					runtime.ReadMemStats(&warmStart)
				}
				span := in.tr.begin("core.RunPass", id)
				start := time.Now()
				e.RunPass()
				passMs = append(passMs, ms(time.Since(start)))
				in.tr.end(span)
			}
			runtime.ReadMemStats(&warmEnd)
		})
		res = core.Result{Ranks: e.Ranks(), Passes: e.Pass(), Converged: e.Converged(), Counters: e.Counters()}
		sort.Float64s(passMs)
		r.m["core.pass_ms_p50"] = metrics.Quantile(passMs, 0.5)
		r.m["core.pass_ms_max"] = passMs[len(passMs)-1]
		if res.Passes > 1 {
			r.m["core.allocs_per_pass"] = float64(warmEnd.Mallocs-warmStart.Mallocs) / float64(res.Passes-1)
		}
	}
	if !res.Converged {
		r.failf("pass engine did not converge in %d passes", res.Passes)
	}

	docs := float64(in.w.docs)
	r.m["solve_s"] = solve.Seconds()
	r.m["msgs_per_doc"] = float64(res.Counters.InterPeerMsgs) / docs
	// No socket exists here, so the bytes are computed the way the
	// paper's section 4.6.1 does: 24 bytes per inter-peer message.
	r.m["wire_bytes_per_doc"] = float64(res.Counters.InterPeerMsgs) * p2p.UpdateWireBytes / docs
	in.checkRanks(&r, res.Ranks)
	if folded, shipped := e.MassBalance(); math.Abs(folded-shipped) > 1e-9*math.Max(1, math.Abs(shipped)) {
		r.failf("rank mass folded %.12g != shipped %.12g", folded, shipped)
	}

	r.m["core.pass_count"] = float64(res.Passes)
	r.m["core.updates_per_s"] = float64(res.Counters.Total()) / solve.Seconds()
	r.m["core.inter_peer_msgs"] = float64(res.Counters.InterPeerMsgs)
	r.m["core.intra_peer_msgs"] = float64(res.Counters.IntraPeerMsgs)
	return r
}

// setupOnly performs the workload's set-up once more and tears it
// down, returning how long the set-up took.
func (in *input) setupOnly() (float64, error) {
	m := sample{}
	runtime.GC()
	if in.w.wire {
		c, _, _, err := in.newCluster(m, false)
		if err != nil {
			return 0, err
		}
		c.Close()
		return m["setup_s"], nil
	}
	_, release, err := in.passEngine(m, 0)
	release()
	return m["setup_s"], err
}
