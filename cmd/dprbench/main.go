// Command dprbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dprbench -table all -scale small
//	dprbench -table 3 -scale paper        # full paper sizes (slow, GBs of RAM)
//	dprbench -table quality               # section 4.3 text claims
//	dprbench -table webscale              # section 4.6.2 estimates
//	dprbench -table solvers               # centralized-solver ablation
//
// The BigGraph scaling experiment bypasses the tables: generate one
// power-law graph at an arbitrary size, place it, and converge the
// distributed computation through the chosen adjacency substrate:
//
//	dprbench -docs 10000000 -compressed                      # CSR in heap
//	dprbench -docs 10000000 -compressed -graphfile g.dprz    # out-of-core mmap
//	dprbench -docs 100000 -json results/BENCH_bigraph.json   # record the run
//
// The engine race runs every registered solver engine (pass, chaotic,
// diffusion) on the same seeded 100k power-law graph
// across the plain, CSR and mmap substrates, recording each engine's
// trajectory toward a shared accuracy target:
//
//	dprbench -race-engines                                   # writes results/BENCH_engines.json
//	dprbench -race-engines -race-docs 10000 -race-target 1e-4
//
// Individual table experiments can also swap the solver:
//
//	dprbench -table 2 -engine diffusion
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"dpr/internal/experiments"
	"dpr/internal/metrics"
	"dpr/internal/race"
	"dpr/internal/telemetry"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1,2,3,4,5,6,quality,webscale,exectime,insertcost,solvers,all")
	scaleName := flag.String("scale", "small", "experiment scale: small, medium, paper")
	seed := flag.Uint64("seed", 42, "experiment seed")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` on exit")
	telemetryFlag := flag.Bool("telemetry", false, "record pass telemetry (residual decay, docs/sec) and dump the registry on exit")
	docs := flag.Int("docs", 0, "run the BigGraph scaling experiment at this document count instead of the tables")
	compressedFlag := flag.Bool("compressed", false, "BigGraph: use the compressed delta-varint CSR substrate")
	workers := flag.Int("workers", 0, "BigGraph: pass-engine workers (0 serial, -1 GOMAXPROCS)")
	graphFile := flag.String("graphfile", "", "BigGraph: write the compressed graph to this DPRZ file and solve from a read-only mapping of it")
	jsonOut := flag.String("json", "", "BigGraph / race: write the run into this JSON file")
	engineName := flag.String("engine", "", "solver engine for the table experiments (see internal/engine; \"\" = pass)")
	raceEngines := flag.Bool("race-engines", false, "race every registered engine on a seeded 100k graph across substrates and write results/BENCH_engines.json")
	raceDocs := flag.Int("race-docs", 100_000, "race: graph size")
	racePeers := flag.Int("race-peers", 500, "race: peer count")
	raceTarget := flag.Float64("race-target", 1e-3, "race: shared max-rel-error target vs the centralized reference")
	flag.Parse()

	if *raceEngines {
		if err := runRace(*raceDocs, *racePeers, *seed, *raceTarget, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: race-engines: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *docs > 0 {
		if err := runBigGraph(*docs, *workers, *seed, *compressedFlag, *graphFile, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: biggraph: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Profiling hooks so hot-path regressions are diagnosable without
	// editing code: dprbench -table 1 -cpuprofile cpu.pprof, then
	// `go tool pprof cpu.pprof`. stopProfiles runs on every exit path
	// (run() exits via fail(), which bypasses defers).
	stopProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: creating %s: %v\n", *cpuprofile, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: starting CPU profile: %v\n", err)
			os.Exit(2)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	writeHeap := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: creating %s: %v\n", *memprofile, err)
			return
		}
		defer f.Close()
		runtime.GC() // flush dead objects so the profile shows live state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: writing heap profile: %v\n", err)
		}
	}
	fail := func(code int) {
		stopProfiles()
		writeHeap()
		os.Exit(code)
	}

	var sc experiments.Scale
	switch *scaleName {
	case "small":
		sc = experiments.Small()
	case "medium":
		sc = experiments.Medium()
	case "paper":
		sc = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "dprbench: unknown scale %q\n", *scaleName)
		fail(2)
	}
	sc.Seed = *seed
	sc.Engine = *engineName

	// Telemetry: one registry + trace shared by every experiment's
	// pass engines, dumped in exposition format when the run ends.
	var reg *telemetry.Registry
	var trace *telemetry.Trace
	if *telemetryFlag {
		reg = telemetry.NewRegistry()
		trace = telemetry.NewTrace(0)
		clock := func() int64 { return time.Now().UnixNano() }
		trace.SetClock(clock)
		sink := telemetry.NewPassSink(reg, trace)
		sink.Clock = clock
		sc.Sink = sink
	}
	dumpTelemetry := func() {
		if reg == nil {
			return
		}
		fmt.Println("--- telemetry ---")
		if err := reg.Snapshot().RenderText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: rendering telemetry: %v\n", err)
		}
		fmt.Printf("(trace captured %d of %d convergence events)\n", trace.Len(), trace.Cap())
	}

	show := func(t *metrics.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "dprbench: %s failed: %v\n", name, err)
			fail(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *table == "all" || *table == name }

	if want("1") {
		run("table 1", func() error {
			res, err := experiments.Table1(sc)
			if err != nil {
				return err
			}
			show(res.Render())
			return nil
		})
	}
	if want("2") {
		run("table 2", func() error {
			res, err := experiments.Table2(sc)
			if err != nil {
				return err
			}
			for _, t := range res.Render() {
				show(t)
			}
			return nil
		})
	}
	if want("3") {
		run("table 3", func() error {
			res, err := experiments.Table3(sc)
			if err != nil {
				return err
			}
			show(res.Render())
			return nil
		})
	}
	if want("4") {
		run("table 4", func() error {
			res, err := experiments.Table4(sc)
			if err != nil {
				return err
			}
			for _, t := range res.Render() {
				show(t)
			}
			return nil
		})
	}
	if want("5") {
		run("table 5", func() error {
			show(experiments.Table5())
			return nil
		})
	}
	if want("6") {
		run("table 6", func() error {
			res, err := experiments.Table6(sc)
			if err != nil {
				return err
			}
			show(res.Render())
			return nil
		})
	}
	if want("quality") {
		run("quality-vs-pass", func() error {
			rs, err := experiments.QualityVsPass(sc)
			if err != nil {
				return err
			}
			show(experiments.RenderQualityVsPass(rs))
			return nil
		})
	}
	if want("webscale") {
		run("webscale", func() error {
			rows, err := experiments.WebScale(sc)
			if err != nil {
				return err
			}
			show(experiments.RenderWebScale(rows))
			return nil
		})
	}
	if want("exectime") {
		run("exectime", func() error {
			rows, err := experiments.ExecTimeValidation(sc)
			if err != nil {
				return err
			}
			show(experiments.RenderExecTime(rows))
			return nil
		})
	}
	if want("insertcost") {
		run("insertcost", func() error {
			rows, err := experiments.InsertCost(sc)
			if err != nil {
				return err
			}
			show(experiments.RenderInsertCost(rows))
			return nil
		})
	}
	if want("solvers") {
		run("solvers", func() error {
			rows, err := experiments.SolverComparison(sc, 1e-10)
			if err != nil {
				return err
			}
			show(experiments.RenderSolverComparison(rows))
			return nil
		})
	}

	dumpTelemetry()
	stopProfiles()
	writeHeap()
}

// runRace executes the cross-engine convergence race and writes the
// machine-readable report (default results/BENCH_engines.json). The
// harness itself is deterministic; wall-clock and hardware identity
// are attached here, at the edge.
func runRace(docs, peers int, seed uint64, target float64, jsonOut string) error {
	if jsonOut == "" {
		jsonOut = "results/BENCH_engines.json"
	}
	tmp, err := os.MkdirTemp("", "dpr-race-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	rep, err := race.Run(race.Config{
		Docs:       docs,
		Peers:      peers,
		Seed:       seed,
		Target:     target,
		Substrates: []string{"plain", "csr", "csr_mmap"},
		GraphFile:  filepath.Join(tmp, "race.dprz"),
		Clock:      func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return err
	}
	fmt.Printf("engine race: %d docs, %d edges, %d peers, target %g (%v)\n",
		rep.Docs, rep.Edges, rep.Peers, rep.Target, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%-10s %-9s %7s %9s %12s %12s %10s %11s\n",
		"engine", "substrate", "steps", "eq-passes", "msgs-to-tgt", "final-err", "wall", "at-target")
	for _, r := range rep.Runs {
		eq, msgs, at := "-", "-", "no"
		if r.ReachedTarget {
			eq = fmt.Sprintf("%.2f", r.EquivPassesToTarget)
			msgs = fmt.Sprintf("%d", r.MessagesToTarget)
			at = "yes"
		}
		fmt.Printf("%-10s %-9s %7d %9s %12s %12.3g %10s %11s\n",
			r.Engine, r.Substrate, r.Steps, eq, msgs, r.FinalErr,
			time.Duration(r.WallNanos).Round(time.Millisecond), at)
	}

	doc := struct {
		Benchmark string         `json:"benchmark"`
		Hardware  map[string]any `json:"hardware"`
		*race.Report
	}{
		Benchmark: "cross-engine convergence race (cmd/dprbench -race-engines)",
		Hardware: map[string]any{
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		Report: rep,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(jsonOut), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded: %s\n", jsonOut)
	return nil
}

// bigBenchFile is the shape of results/BENCH_bigraph.json: a run per
// (docs, substrate) key, merged across invocations so one file
// accumulates the whole scaling story.
type bigBenchFile struct {
	Benchmark string                                `json:"benchmark"`
	Hardware  map[string]any                        `json:"hardware"`
	Runs      map[string]experiments.BigGraphResult `json:"runs"`
}

// runBigGraph executes one BigGraph run, prints a summary, and merges
// the result into the -json file when given.
func runBigGraph(docs, workers int, seed uint64, compressed bool, graphFile, jsonOut string) error {
	cfg := experiments.BigGraphConfig{
		Docs:       docs,
		Workers:    workers,
		Seed:       seed,
		Compressed: compressed,
		GraphFile:  graphFile,
		Clock:      func() int64 { return time.Now().UnixNano() },
	}
	res, err := experiments.BigGraph(cfg)
	if err != nil {
		return err
	}
	substrate := "plain"
	switch {
	case res.MmapBacked:
		substrate = "csr_mmap"
	case compressed:
		substrate = "csr"
	}
	fmt.Printf("biggraph %s: %d docs, %d edges\n", substrate, res.Docs, res.Edges)
	fmt.Printf("  generate: %.2fs (%.1fM edges/sec)\n",
		float64(res.GenNanos)*1e-9, res.GenEdgesPerSec/1e6)
	fmt.Printf("  space:    %.3f payload bytes/edge, %.3f with metadata (plain: 4.000)\n",
		res.BytesPerEdge, res.TotalBytesPerEdge)
	fmt.Printf("  solve:    %d passes in %.2fs (%.1fM updates/sec)\n",
		res.Passes, float64(res.SolveNanos)*1e-9, res.SolveUpdatesPerSec/1e6)
	fmt.Printf("  rankhash: %016x\n", res.RankHash)

	if jsonOut == "" {
		return nil
	}
	file := bigBenchFile{
		Benchmark: "BigGraph scaling (cmd/dprbench -docs N [-compressed] [-graphfile F])",
		Runs:      make(map[string]experiments.BigGraphResult),
	}
	if raw, err := os.ReadFile(jsonOut); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("parsing existing %s: %w", jsonOut, err)
		}
	}
	file.Hardware = map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if file.Runs == nil {
		file.Runs = make(map[string]experiments.BigGraphResult)
	}
	file.Runs[fmt.Sprintf("%d_%s", docs, substrate)] = res
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  recorded: %s (key %d_%s)\n", jsonOut, docs, substrate)
	return nil
}
