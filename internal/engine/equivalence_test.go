package engine

import (
	"testing"

	"dpr/internal/core"
)

// Cross-engine equivalence: every engine, run to a tight target on the
// same seeded graph and placement, must land on the centralized
// reference solution. All are deterministic fixed-point solvers and get
// the same 1e-6 bar.

// iterativeEps returns per-engine epsilons that all guarantee better
// than 1e-6 final error. The engines define residuals differently
// (max relative pass change, max pending delta, total remaining
// fluid), so the knobs differ while the bar is shared:
//   - pass: relative delta cutoff eps leaves at most
//     eps·d/(1-d) ≈ 5.7·eps relative error; 1e-8 → ~6e-8.
//   - chaotic: absolute pending cutoff eps·(1-d) per component,
//     amplified at most 1/(1-d) on fold-in; 1e-8 is ample.
//   - diffusion: residual is the average remaining mass, so the
//     worst-case per-document bound is N·eps; 1e-11 keeps even the
//     pessimistic bound at 1e-6 for the 100k graph (in practice the
//     fluid is spread and the error lands near eps).
func iterativeEps(name string) float64 {
	if name == "diffusion" {
		return 1e-11
	}
	return 1e-8
}

func runIterative(t *testing.T, name string, docs int, seed uint64) []float64 {
	t.Helper()
	cfg, _ := testCfg(t, docs, 32, seed, core.Options{Epsilon: iterativeEps(name)})
	e, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Drive(e, 0)
	if !res.Converged {
		t.Fatalf("%s did not converge on %d docs", name, docs)
	}
	return res.Ranks
}

func TestIterativeEquivalence10k(t *testing.T) {
	const docs, seed = 10_000, 42
	_, g := testCfg(t, docs, 32, seed, core.Options{})
	ref := reference(t, g)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ranks := runIterative(t, name, docs, seed)
			if err := maxRelErr(ranks, ref); err > 1e-6 {
				t.Fatalf("%s: max rel err vs reference %v > 1e-6", name, err)
			}
		})
	}
}

func TestIterativeEquivalence100k(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("100k equivalence sweep skipped in -short and under -race")
	}
	const docs, seed = 100_000, 43
	_, g := testCfg(t, docs, 64, seed, core.Options{})
	ref := reference(t, g)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ranks := runIterative(t, name, docs, seed)
			if err := maxRelErr(ranks, ref); err > 1e-6 {
				t.Fatalf("%s: max rel err vs reference %v > 1e-6", name, err)
			}
		})
	}
}

// TestDeterminismAcrossWorkers pins that the Workers option never
// changes the answer: the pass engine's parallel fold is designed to
// be bit-identical to the serial one, and the single-threaded engines
// must ignore the knob entirely.
func TestDeterminismAcrossWorkers(t *testing.T) {
	const docs, seed = 3_000, 7
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var runs [2][]float64
			for i, workers := range []int{1, 4} {
				opt := core.Options{Epsilon: 1e-6, Workers: workers}
				cfg, _ := testCfg(t, docs, 16, seed, opt)
				e, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 40; s++ {
					if e.Step().Done {
						break
					}
				}
				runs[i] = append([]float64(nil), e.Ranks()...)
			}
			for i := range runs[0] {
				if runs[0][i] != runs[1][i] {
					t.Fatalf("%s: rank[%d] differs across workers: %v vs %v",
						name, i, runs[0][i], runs[1][i])
				}
			}
		})
	}
}

// TestDeterminismAcrossRuns pins bit-identical replay: two engines
// built from the same Config must emit identical ranks, step counts
// and message totals.
func TestDeterminismAcrossRuns(t *testing.T) {
	const docs, seed = 3_000, 11
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			type run struct {
				ranks []float64
				steps int
				msgs  int64
			}
			var runs [2]run
			for i := range runs {
				cfg, _ := testCfg(t, docs, 16, seed, core.Options{Epsilon: 1e-7})
				e, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				steps := 0
				for s := 0; s < 200; s++ {
					st := e.Step()
					steps = st.Step
					if st.Done {
						break
					}
				}
				runs[i] = run{
					ranks: append([]float64(nil), e.Ranks()...),
					steps: steps,
					msgs:  e.Counters().InterPeerMsgs,
				}
			}
			if runs[0].steps != runs[1].steps {
				t.Fatalf("%s: step counts differ: %d vs %d", name, runs[0].steps, runs[1].steps)
			}
			if runs[0].msgs != runs[1].msgs {
				t.Fatalf("%s: message counts differ: %d vs %d", name, runs[0].msgs, runs[1].msgs)
			}
			for i := range runs[0].ranks {
				if runs[0].ranks[i] != runs[1].ranks[i] {
					t.Fatalf("%s: rank[%d] differs across runs: %v vs %v",
						name, i, runs[0].ranks[i], runs[1].ranks[i])
				}
			}
		})
	}
}
