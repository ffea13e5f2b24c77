// Package engine is the solver seam: one wire/membership/telemetry
// stack, many solvers. The paper's §2.2 chaotic iteration is a single
// point in a design space that also contains synchronized passes and
// D-Iteration-style residual diffusion (Hong et al.); this package
// puts every solver behind one interface so they share graph
// substrates (plain, CSR, mmap via graph.Linker/CursorLinker), peer
// placement, message accounting and the telemetry sink — and so the
// convergence race harness (internal/race) can compare them on equal
// footing.
//
// Three engines register at init: "pass" (core.PassEngine, the paper's
// §4.2 simulation), and "chaotic" and "diffusion" (ranker.go: one
// single-goroutine round driver over the same per-peer p2p.Ranker fold
// the TCP peer runs, started at push threshold ε — Figure 1 as stated —
// and at the staged 1/2-halved-to-ε schedule respectively).
package engine

import (
	"fmt"
	"sort"
	"strings"

	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// Config is everything an engine needs to start: the graph (any
// Linker; engines mint per-worker cursors via graph.CursorFor so the
// compressed and mmap substrates slot in unchanged), the peer
// placement, the shared solver options, a seed, and an optional
// telemetry sink.
type Config struct {
	Graph graph.Linker
	Net   *p2p.Network
	Churn *p2p.Churn // pass engine only; others reject non-nil
	Opt   core.Options
	// Seed is for randomized engines. Every registered engine is
	// deterministic, so none reads it today.
	Seed uint64
	Sink *telemetry.PassSink
}

func (c Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("engine: nil graph")
	}
	if c.Net == nil {
		return fmt.Errorf("engine: nil network")
	}
	return nil
}

// StepStats reports one engine step. A step is the engine's natural
// unit of scheduling — a pass, a round of per-peer folds — so raw step
// counts are not comparable across engines; Processed is (it counts
// document visits), which is what the race harness normalizes into
// equivalent passes.
type StepStats struct {
	Step      int     // 1-based step number
	Residual  float64 // engine's own residual estimate after the step
	Processed int64   // document visits this step
	Messages  int64   // cross-peer messages sent this step
	Done      bool    // the engine's own stopping rule fired
}

// Engine is the common seam. Implementations are not safe for
// concurrent use; drive one engine from one goroutine.
type Engine interface {
	// Name returns the registry name the engine was constructed under.
	Name() string
	// Step advances the solver by one unit of work. Calling Step after
	// Done is harmless (it reports Done again without working).
	Step() StepStats
	// Ranks is the current estimate (live view; copy before mutating
	// the engine further).
	Ranks() []float64
	// Residual is the engine's own convergence residual. Semantics are
	// per-engine (documented on each) but all decrease toward the
	// configured epsilon.
	Residual() float64
	// Converged reports the engine's own stopping rule.
	Converged() bool
	// Counters exposes message accounting on the shared p2p ledger.
	Counters() p2p.Counters
}

// MassAccountant is implemented by engines with an internal rank-mass
// conservation identity: two totals kept by independent bookkeeping
// (folded-side vs shipped-side) that exact accounting keeps equal up
// to float rounding. The property suite audits it after every step.
type MassAccountant interface {
	MassBalance() (got, want float64)
}

// Factory constructs a registered engine.
type Factory func(Config) (Engine, error)

var (
	registry = map[string]Factory{}
	// names is maintained sorted at Register time so listings never
	// depend on map iteration order (determinism contract).
	names []string
)

// Register adds an engine under name. It panics on duplicates —
// registration happens at init and a collision is a programming error.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry[name] = f
	names = append(names, name)
	sort.Strings(names)
}

// Names returns the registered engine names, sorted.
func Names() []string {
	return append([]string(nil), names...)
}

// New constructs the named engine. An unknown name lists the valid
// engines in the error so -engine typos are self-explaining.
func New(name string, cfg Config) (Engine, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return f(cfg)
}

// Drive steps e until its own stopping rule fires or maxSteps steps
// have run, returning the final state in the core result shape.
// maxSteps <= 0 means 10000.
func Drive(e Engine, maxSteps int) core.Result {
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	steps := 0
	for steps < maxSteps {
		st := e.Step()
		steps = st.Step
		if st.Done {
			break
		}
	}
	c := e.Counters()
	return core.Result{
		Ranks:     e.Ranks(),
		Passes:    c.Passes,
		Converged: e.Converged(),
		Counters:  c,
	}
}

// sinkRecorder adapts the optional telemetry PassSink so the round
// driver records residual decay and per-step work through the same
// instruments the pass engine uses, without nil checks at every call
// site. (The pass adapter wires the sink straight into
// core.PassEngine instead.)
type sinkRecorder struct {
	sink *telemetry.PassSink
}

func (s sinkRecorder) start(step, pending int) {
	if s.sink != nil {
		s.sink.PassStart(step, pending)
	}
}

func (s sinkRecorder) record(step int, residual float64, docs int) {
	if s.sink != nil {
		s.sink.RecordPass(step, residual, docs, 0)
	}
}

// requireStatic rejects configurations only the pass engine supports.
func requireStatic(name string, cfg Config) error {
	if cfg.Churn != nil {
		return fmt.Errorf("engine: %s does not support churn (only pass does)", name)
	}
	if cfg.Net.NumOnline() != cfg.Net.NumPeers() {
		return fmt.Errorf("engine: %s requires all peers online", name)
	}
	return nil
}
