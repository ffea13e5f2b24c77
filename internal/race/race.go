// Package race is the seeded convergence race harness: every
// registered engine (or a chosen subset) runs on the same generated
// graph, peer placement and seed, across one or more graph substrates
// (in-memory adjacency, compressed CSR, mmap CSR), and the harness
// records each engine's trajectory toward a shared accuracy target —
// error versus a tightly converged centralized reference, measured
// after every step. The report is machine-readable (it serializes to
// results/BENCH_engines.json via dprbench -race-engines) and is the
// evidence base for cross-engine claims: who reaches the target in
// the fewest equivalent passes, at what message cost, in how much
// wall-clock.
//
// Fairness rules: raw steps are not comparable (a pass and a round of
// per-peer folds are different amounts of work), so the ranking metric is equivalent passes — cumulative
// document visits divided by graph size. All engines see the same
// placement (seed^0xa5a5, the experiments-package derivation) and the
// same accuracy target; each engine's own epsilon is set a notch
// tighter than the target so its internal stopping rule cannot fire
// before the shared finish line.
package race

import (
	"fmt"

	"dpr/internal/core"
	"dpr/internal/csr"
	"dpr/internal/engine"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// Schema identifies the report layout; bump it when EngineRun or
// Point change shape so downstream parsers fail loudly.
const Schema = "dpr-race/v1"

// Config parameterizes one race.
type Config struct {
	Docs  int    // graph size (power-law, DefaultPowerLawConfig)
	Peers int    // network size
	Seed  uint64 // graph + placement + randomized-engine seed

	// Target is the shared finish line: max relative error versus the
	// centralized reference at which an engine is scored as arrived.
	Target float64

	// Epsilon is each engine's internal stopping epsilon. Zero means
	// Target/50: residual-to-error amplification for the delta-push
	// engines is roughly d/(1-d) plus the unshipped-delta floor, so a
	// 10x margin is not reliably enough for an engine to cross the
	// shared error line before its own stopping rule fires.
	Epsilon float64

	// MaxSteps caps each engine's run (default 400); engines that hit
	// the cap are reported with ReachedTarget=false, not an error.
	MaxSteps int

	// Engines is the subset to race; nil means every registered
	// engine. Unknown names fail fast with the registry's
	// valid-engines error.
	Engines []string

	// Substrates lists graph representations to race on: "plain"
	// (in-memory adjacency), "csr" (compressed in-memory), "csr_mmap"
	// (compressed, memory-mapped from GraphFile). Nil means plain
	// only. All substrates decode identical adjacency, so results
	// differ only in wall-clock.
	Substrates []string

	// GraphFile is where the csr_mmap substrate writes and re-opens
	// the compressed graph. Required when Substrates includes
	// "csr_mmap".
	GraphFile string

	// Clock supplies monotonic nanoseconds for wall-clock attribution.
	// Nil means a deterministic step counter — useful for golden
	// tests; real runs pass time.Now().UnixNano (the harness itself
	// takes no time dependency, keeping it determinism-lint clean).
	Clock func() int64
}

// Point is one step of an engine's trajectory.
type Point struct {
	Step        int     `json:"step"`
	EquivPasses float64 `json:"equiv_passes"` // cumulative docs visited / N
	ErrVsRef    float64 `json:"err_vs_ref"`   // max rel error vs reference
	Residual    float64 `json:"residual"`     // engine's own residual
	Messages    int64   `json:"messages"`     // cumulative cross-peer messages
	Nanos       int64   `json:"nanos"`        // wall-clock since engine start
}

// EngineRun is one engine's full result on one substrate.
type EngineRun struct {
	Engine    string `json:"engine"`
	Substrate string `json:"substrate"`

	Steps         int   `json:"steps"`
	Converged     bool  `json:"converged"` // engine's own stopping rule fired
	ReachedTarget bool  `json:"reached_target"`
	Messages      int64 `json:"messages"`
	WallNanos     int64 `json:"wall_nanos"`

	// StepsToTarget / EquivPassesToTarget / MessagesToTarget score the
	// shared finish line (zero when ReachedTarget is false).
	StepsToTarget       int     `json:"steps_to_target"`
	EquivPassesToTarget float64 `json:"equiv_passes_to_target"`
	MessagesToTarget    int64   `json:"messages_to_target"`

	FinalErr   float64 `json:"final_err"`
	Trajectory []Point `json:"trajectory"`
}

// Report is the machine-readable race result.
type Report struct {
	Schema string      `json:"schema"`
	Docs   int         `json:"docs"`
	Edges  int64       `json:"edges"`
	Peers  int         `json:"peers"`
	Seed   uint64      `json:"seed"`
	Target float64     `json:"target"`
	Runs   []EngineRun `json:"runs"`
}

func (c *Config) fill() error {
	if c.Docs <= 0 || c.Peers <= 0 {
		return fmt.Errorf("race: need positive Docs and Peers (got %d, %d)", c.Docs, c.Peers)
	}
	if c.Target <= 0 {
		return fmt.Errorf("race: need positive Target (got %v)", c.Target)
	}
	if c.Epsilon == 0 {
		c.Epsilon = c.Target / 50
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 400
	}
	if c.Engines == nil {
		c.Engines = engine.Names()
	}
	if c.Substrates == nil {
		c.Substrates = []string{"plain"}
	}
	for _, s := range c.Substrates {
		switch s {
		case "plain", "csr":
		case "csr_mmap":
			if c.GraphFile == "" {
				return fmt.Errorf("race: substrate csr_mmap needs Config.GraphFile")
			}
		default:
			return fmt.Errorf("race: unknown substrate %q (valid: plain, csr, csr_mmap)", s)
		}
	}
	if c.Clock == nil {
		tick := int64(0)
		c.Clock = func() int64 { tick++; return tick }
	}
	return nil
}

// substrate materializes one graph representation. The returned
// closer is nil when nothing needs releasing.
func substrate(kind string, cfg Config) (graph.Linker, func() error, error) {
	gcfg := graph.DefaultPowerLawConfig(cfg.Docs, cfg.Seed)
	switch kind {
	case "plain":
		g, err := graph.GeneratePowerLaw(gcfg)
		return g, nil, err
	case "csr":
		g, _, err := csr.Generate(gcfg)
		return g, nil, err
	case "csr_mmap":
		g, _, err := csr.Generate(gcfg)
		if err != nil {
			return nil, nil, err
		}
		if err := g.WriteFile(cfg.GraphFile); err != nil {
			return nil, nil, err
		}
		m, err := csr.OpenFile(cfg.GraphFile)
		if err != nil {
			return nil, nil, err
		}
		return m, m.Close, nil
	}
	return nil, nil, fmt.Errorf("race: unknown substrate %q", kind)
}

// Run races the configured engines and returns the report. Engine
// construction errors abort the race (they indicate a bad config);
// engines that run out of steps are reported, not failed.
func Run(cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}

	// Reference ranks come from the plain in-memory graph; every
	// substrate decodes the same seeded adjacency, so one reference
	// serves all. Tol sits well under the target so reference error
	// cannot blur the finish line.
	gref, err := graph.GeneratePowerLaw(graph.DefaultPowerLawConfig(cfg.Docs, cfg.Seed))
	if err != nil {
		return nil, err
	}
	refTol := cfg.Target / 50
	if refTol > 1e-10 {
		refTol = 1e-10
	}
	ref, err := solver.Power(gref, solver.Config{Tol: refTol, MaxIters: 5000})
	if err != nil {
		return nil, err
	}

	report := &Report{
		Schema: Schema,
		Docs:   cfg.Docs,
		Edges:  graph.CountEdges(gref),
		Peers:  cfg.Peers,
		Seed:   cfg.Seed,
		Target: cfg.Target,
	}

	for _, sub := range cfg.Substrates {
		g, closer, err := substrate(sub, cfg)
		if err != nil {
			return nil, fmt.Errorf("race: building substrate %s: %w", sub, err)
		}
		for _, name := range cfg.Engines {
			run, err := raceOne(name, sub, g, ref.Ranks, cfg)
			if err != nil {
				if closer != nil {
					closer()
				}
				return nil, err
			}
			report.Runs = append(report.Runs, run)
		}
		if closer != nil {
			if err := closer(); err != nil {
				return nil, fmt.Errorf("race: closing substrate %s: %w", sub, err)
			}
		}
	}
	return report, nil
}

func raceOne(name, sub string, g graph.Linker, ref []float64, cfg Config) (EngineRun, error) {
	net := p2p.NewNetwork(cfg.Peers)
	net.AssignRandom(g, rng.New(cfg.Seed^0xa5a5))
	e, err := engine.New(name, engine.Config{
		Graph: g,
		Net:   net,
		Opt:   core.Options{Epsilon: cfg.Epsilon},
		Seed:  cfg.Seed,
	})
	if err != nil {
		return EngineRun{}, fmt.Errorf("race: constructing %s on %s: %w", name, sub, err)
	}

	run := EngineRun{Engine: name, Substrate: sub}
	var processed int64
	start := cfg.Clock()
	n := float64(g.NumNodes())
	for step := 0; step < cfg.MaxSteps; step++ {
		st := e.Step()
		processed += st.Processed
		errVsRef := solver.MaxRelDiff(e.Ranks(), ref)
		pt := Point{
			Step:        st.Step,
			EquivPasses: float64(processed) / n,
			ErrVsRef:    errVsRef,
			Residual:    st.Residual,
			Messages:    e.Counters().InterPeerMsgs,
			Nanos:       cfg.Clock() - start,
		}
		run.Trajectory = append(run.Trajectory, pt)
		run.Steps = st.Step
		run.FinalErr = errVsRef
		if !run.ReachedTarget && errVsRef <= cfg.Target {
			run.ReachedTarget = true
			run.StepsToTarget = st.Step
			run.EquivPassesToTarget = pt.EquivPasses
			run.MessagesToTarget = pt.Messages
		}
		if st.Done {
			break
		}
	}
	run.Converged = e.Converged()
	run.Messages = e.Counters().InterPeerMsgs
	run.WallNanos = cfg.Clock() - start
	return run, nil
}
