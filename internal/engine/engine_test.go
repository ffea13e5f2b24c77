package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/solver"
)

// testCfg builds a seeded power-law graph with random peer placement —
// the same placement derivation the experiments package uses, so
// engine tests and harness runs see identical topologies.
func testCfg(t testing.TB, docs, peers int, seed uint64, opt core.Options) (Config, *graph.Graph) {
	t.Helper()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, seed))
	net := p2p.NewNetwork(peers)
	net.AssignRandom(g, rng.New(seed^0xa5a5))
	return Config{Graph: g, Net: net, Opt: opt, Seed: seed}, g
}

// reference computes tightly converged centralized ranks.
func reference(t testing.TB, g *graph.Graph) []float64 {
	t.Helper()
	res, err := solver.Power(g, solver.Config{Tol: 1e-13, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ranks
}

func TestNamesSortedAndComplete(t *testing.T) {
	want := []string{"chaotic", "diffusion", "pass"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestRegistryResolution(t *testing.T) {
	cfg, _ := testCfg(t, 200, 8, 1, core.Options{Epsilon: 1e-4})
	cases := []struct {
		name    string
		wantErr string // substring of the expected error, "" for success
	}{
		{name: "pass"},
		{name: "chaotic"},
		{name: "diffusion"},
		{name: "", wantErr: `unknown engine ""`},
		{name: "Pass", wantErr: `unknown engine "Pass"`},
		{name: "gauss-seidel", wantErr: "valid: chaotic, diffusion, pass"},
		// Retired engines: a script that still names one is told what is left.
		{name: "async", wantErr: `unknown engine "async" (valid: chaotic, diffusion, pass)`},
		{name: "walk", wantErr: `unknown engine "walk" (valid: chaotic, diffusion, pass)`},
	}
	for _, tc := range cases {
		t.Run("name="+tc.name, func(t *testing.T) {
			e, err := New(tc.name, cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New(%q) failed: %v", tc.name, err)
				}
				if e.Name() != tc.name {
					t.Fatalf("Name() = %q, want %q", e.Name(), tc.name)
				}
				return
			}
			if err == nil {
				t.Fatalf("New(%q) succeeded, want error containing %q", tc.name, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New(%q) error = %q, want substring %q", tc.name, err, tc.wantErr)
			}
		})
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("pass", newPassEngine)
}

func TestConfigValidation(t *testing.T) {
	cfg, _ := testCfg(t, 50, 4, 2, core.Options{})
	if _, err := New("pass", Config{Net: cfg.Net}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New("pass", Config{Graph: cfg.Graph}); err == nil {
		t.Fatal("nil network accepted")
	}
}

// TestStaticOnlyEnginesRejectChurn pins the seam contract that churn
// stays a pass-engine capability: the store-and-retry path the other
// engines lack is what makes offline peers survivable.
func TestStaticOnlyEnginesRejectChurn(t *testing.T) {
	for _, name := range rankerEngines {
		cfg, _ := testCfg(t, 50, 4, 3, core.Options{})
		churn, err := p2p.NewChurn(cfg.Net, 0.5, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Churn = churn
		if _, err := New(name, cfg); err == nil {
			t.Fatalf("%s accepted churn", name)
		}
	}
}

// TestDriveStopsOnDone pins that Drive returns once the engine's own
// stopping rule fires and that stepping past Done is harmless.
func TestDriveStopsOnDone(t *testing.T) {
	cfg, g := testCfg(t, 500, 8, 4, core.Options{Epsilon: 1e-8})
	e, err := New("diffusion", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Drive(e, 0)
	if !res.Converged {
		t.Fatal("diffusion did not converge")
	}
	if err := maxRelErr(res.Ranks, reference(t, g)); err > 1e-6 {
		t.Fatalf("rel err %v > 1e-6", err)
	}
	st := e.Step()
	if !st.Done {
		t.Fatal("Step after Done not Done")
	}
	if st.Processed != 0 {
		t.Fatalf("Step after Done did %d work", st.Processed)
	}
}

func maxRelErr(got, want []float64) float64 {
	worst := 0.0
	for i := range got {
		denom := math.Abs(want[i])
		if denom < 1 {
			denom = 1
		}
		if e := math.Abs(got[i]-want[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst
}
