package engine

import (
	"dpr/internal/core"
	"dpr/internal/p2p"
)

func init() { Register("pass", newPassEngine) }

// passEngine re-homes core.PassEngine — the paper's §4.2 synchronized
// pass simulation — behind the seam, with no behavior change: a Step
// is exactly one RunPass, and the existing bit-identity and bench
// gates keep holding on the underlying engine. It is the only engine
// supporting churn (the pass boundary is where the paper's leave/join
// model is defined).
//
// Residual semantics: the most recent pass's maximum relative rank
// change (PassStats.MaxChange).
type passEngine struct {
	e *core.PassEngine
}

func newPassEngine(cfg Config) (Engine, error) {
	e, err := core.NewPassEngine(cfg.Graph, cfg.Net, cfg.Churn, cfg.Opt)
	if err != nil {
		return nil, err
	}
	e.Sink = cfg.Sink
	return &passEngine{e: e}, nil
}

func (p *passEngine) Name() string { return "pass" }

func (p *passEngine) Step() StepStats {
	if p.e.Converged() {
		return StepStats{Step: p.e.Pass(), Residual: p.e.LastResidual(), Done: true}
	}
	st := p.e.RunPass()
	return StepStats{
		Step:      st.Pass,
		Residual:  st.MaxChange,
		Processed: int64(st.ProcessedDocs),
		Messages:  st.InterMsgs,
		Done:      p.e.Converged(),
	}
}

func (p *passEngine) Ranks() []float64       { return p.e.Ranks() }
func (p *passEngine) Residual() float64      { return p.e.LastResidual() }
func (p *passEngine) Converged() bool        { return p.e.Converged() }
func (p *passEngine) Counters() p2p.Counters { return p.e.Counters() }

func (p *passEngine) MassBalance() (got, want float64) { return p.e.MassBalance() }

var _ MassAccountant = (*passEngine)(nil)
