package engine

import (
	"math"
	"testing"
	"testing/quick"

	"dpr/internal/core"
)

// Property suite (testing/quick): randomized graphs, seeds and step
// budgets drive invariants that must hold at every step, not just at
// convergence — the double-entry bookkeeping that catches lost or
// duplicated mass long before it shows up as a wrong rank.

// quickCfg clamps testing/quick's arbitrary inputs into a valid
// engine configuration.
func quickCfg(t *testing.T, rawDocs, rawPeers uint16, seed uint64) Config {
	t.Helper()
	docs := 50 + int(rawDocs)%400
	peers := 2 + int(rawPeers)%14
	cfg, _ := testCfg(t, docs, peers, seed, core.Options{Epsilon: 1e-6})
	return cfg
}

func quickConf() *quick.Config { return &quick.Config{MaxCount: 6} }

// TestQuickMassConservation: after every step of every engine, the
// folded-side and shipped-side rank-mass ledgers agree to float
// rounding.
func TestQuickMassConservation(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prop := func(rawDocs, rawPeers uint16, seed uint64, rawSteps uint8) bool {
				cfg := quickCfg(t, rawDocs, rawPeers, seed)
				e, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ma := e.(MassAccountant)
				steps := 1 + int(rawSteps)%6
				for s := 0; s < steps; s++ {
					st := e.Step()
					got, want := ma.MassBalance()
					denom := math.Abs(want)
					if denom < 1 {
						denom = 1
					}
					if math.Abs(got-want)/denom > 1e-9 {
						t.Logf("%s step %d: mass got %v want %v", name, s+1, got, want)
						return false
					}
					if st.Done {
						break
					}
				}
				return true
			}
			if err := quick.Check(prop, quickConf()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickDiffusionMonotoneResidual: each diffusion sweep removes
// fluid f and injects at most d·f, so the residual (total remaining
// fluid, normalized) never increases — on any graph, from any seed.
// The residual is a sum over rows plus a sum over inboxes, and mass
// moving between the two re-associates the additions, so a step that
// releases almost nothing may read an ulp higher: hence the 1e-12.
func TestQuickDiffusionMonotoneResidual(t *testing.T) {
	prop := func(rawDocs, rawPeers uint16, seed uint64) bool {
		cfg := quickCfg(t, rawDocs, rawPeers, seed)
		e, err := New("diffusion", cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := e.Residual()
		for s := 0; s < 25; s++ {
			st := e.Step()
			if st.Residual > prev*(1+1e-12) {
				t.Logf("step %d: residual rose %v -> %v", st.Step, prev, st.Residual)
				return false
			}
			prev = st.Residual
			if st.Done {
				break
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConf()); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSnapshotRestartEquivalence: for every checkpointing engine,
// interrupting a run at an arbitrary step boundary, snapshotting, and
// restoring into a FRESH engine must land on bit-identical final ranks
// versus the uninterrupted run — the restart-safety contract the
// paper's churn model leans on.
func TestQuickSnapshotRestartEquivalence(t *testing.T) {
	for _, name := range []string{"pass", "diffusion"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prop := func(rawDocs, rawPeers uint16, seed uint64, rawCut uint8) bool {
				docs := 50 + int(rawDocs)%400
				peers := 2 + int(rawPeers)%14
				opt := core.Options{Epsilon: 1e-8}

				// Uninterrupted run.
				cfgA, _ := testCfg(t, docs, peers, seed, opt)
				a, err := New(name, cfgA)
				if err != nil {
					t.Fatal(err)
				}
				cut := 1 + int(rawCut)%5
				for s := 0; s < cut; s++ {
					a.Step()
				}
				snap, err := a.(Checkpointer).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				resA := Drive(a, 0)

				// Fresh engine over an identically rebuilt world, fast-
				// forwarded from the snapshot.
				cfgB, _ := testCfg(t, docs, peers, seed, opt)
				b, err := New(name, cfgB)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.(Checkpointer).Restore(snap); err != nil {
					t.Fatal(err)
				}
				resB := Drive(b, 0)

				if resA.Converged != resB.Converged {
					t.Logf("%s: converged mismatch %v vs %v", name, resA.Converged, resB.Converged)
					return false
				}
				for i := range resA.Ranks {
					if resA.Ranks[i] != resB.Ranks[i] {
						t.Logf("%s: rank[%d] %v (uninterrupted) vs %v (restored)",
							name, i, resA.Ranks[i], resB.Ranks[i])
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, quickConf()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
