// Command bench is the repository's benchmark: five workloads over
// the loopback TCP cluster and the in-process pass engine, six
// end-to-end metrics, and a per-layer table measured from outside the
// program. README.md in this directory is the manual.
//
//	go run ./bench --workload wire-8 --seed 42 --seconds 12 --trace 0
//	go run ./bench --workload all
//
// One invocation runs one workload in its own process and ends its
// standard output with one JSON line holding the metrics: the
// end-to-end ones with --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// scratchDir is where the benchmark writes files (the csr image, the
// span dump), relative to the directory it is run from.
const scratchDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in its own process, untraced then traced)")
	seed := fs.Uint64("seed", 42, "seed for the graph, the placement and the fault dice")
	seconds := fs.Float64("seconds", 16, "keep starting repetitions until this much time has been measured")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced repetitions and replays")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q, or bad --trace/--seconds\n", *name)
		fs.Usage()
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload untraced and then traced, each in a
// process of its own so that peak_rss_mb is the workload's alone.
func runAll(seed uint64, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s --trace %d: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends its output with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// ops counts operations — repetitions and fallible replays — and
// reports the ones that failed a check as they happen.
type ops struct {
	attempted, failed int
	log               io.Writer
}

// record counts one operation; any fails make it a failed one.
func (o *ops) record(what string, fails ...string) {
	o.attempted++
	if len(fails) == 0 {
		return
	}
	o.failed++
	for _, f := range fails {
		fmt.Fprintf(o.log, "bench: FAILED %s: %s\n", what, f)
	}
}

// measure runs one workload for about budget and prints every metric
// of the mode by name.
func measure(w workload, seed uint64, budget time.Duration, traced bool, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return result{}, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	in, err := newInput(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "workload %s: seed=%d docs=%d edges=%d peers=%d damping=%g epsilon=%g trace=%t\n",
		w.name, seed, w.docs, in.g.NumEdges(), w.peers, damping, epsilon, traced)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s; sockets: loopback; load: closed loop, one caller, one solve at a time; heartbeat off\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	o := &ops{log: stderr}
	series := map[string][]float64{}
	add := func(m sample) {
		for k, v := range m {
			series[k] = append(series[k], v)
		}
	}
	median := func(name string) float64 { return summarize(series[name]).Median }

	// A traced run alternates untraced and traced repetitions, so that
	// trace.overhead_pct compares solves made under the same conditions;
	// only the traced ones feed the per-layer table.
	var untracedSolve []float64
	var hash uint64
	start := time.Now()
	for n := 1; ; n++ {
		tracedRep := traced && n%2 == 0
		r := in.run(tracedRep)
		o.record(fmt.Sprintf("repetition %d", n), r.fails...)
		if traced && !tracedRep {
			untracedSolve = append(untracedSolve, r.m["solve_s"])
		} else {
			add(r.m)
			hash = r.hash
		}
		if time.Since(start) >= budget && tracedRep == traced {
			break
		}
	}

	var table []metric
	if traced {
		table = perLayer
		add(in.replays(o, median("solve_s"), median("rank_err_p99"), hash))
		if base := summarize(untracedSolve).Median; base > 0 {
			add(sample{"trace.overhead_pct": 100 * (median("solve_s") - base) / base})
		}
	} else {
		table = endToEnd
		for len(series["setup_s"]) < setupRounds {
			s, err := in.setupOnly()
			if err != nil {
				return result{}, fmt.Errorf("extra set-up: %w", err)
			}
			add(sample{"setup_s": s})
		}
	}
	tr.end(in.root)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	fmt.Fprintf(stdout, "attempted_ops=%d failed_ops=%d\n", o.attempted, o.failed)
	fmt.Fprintf(stdout, "%-36s %-10s %14s %14s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "q1", "q3", "n")
	for _, mt := range table {
		s := summarize(series[mt.name])
		fmt.Fprintf(stdout, "%-36s %-10s %14.6g %14.6g %14.6g %14.6g %14.6g %3d\n", mt.name, mt.unit, s.Median, s.Min, s.Max, s.Q1, s.Q3, s.N)
		res.Metrics[mt.name] = value{Value: s.Median, Unit: mt.unit}
	}
	if traced {
		path := fmt.Sprintf("%s/trace-%s.json", scratchDir, w.name)
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "spans by name (self = duration not covered by child spans), all %d written to %s\n", len(tr.spans), path)
		fmt.Fprintf(stdout, "%-36s %8s %14s %14s\n", "span", "calls", "total_s", "self_s")
		for _, st := range tr.selfTimes() {
			fmt.Fprintf(stdout, "%-36s %8d %14.6f %14.6f\n", st.Name, st.Calls, st.Total.Seconds(), st.Self.Seconds())
		}
	}
	return res, nil
}
