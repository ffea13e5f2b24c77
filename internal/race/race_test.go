package race

import (
	"path/filepath"
	"testing"
)

// findRun pulls one engine/substrate result out of a report.
func findRun(t *testing.T, rep *Report, eng, sub string) EngineRun {
	t.Helper()
	for _, r := range rep.Runs {
		if r.Engine == eng && r.Substrate == sub {
			return r
		}
	}
	t.Fatalf("report has no run for %s on %s", eng, sub)
	return EngineRun{}
}

// TestRaceEnginesSmoke is the CI gate (make race-engines-smoke): a
// small seeded race across every registered engine, asserting the
// cross-engine equivalence the harness exists to measure — every
// engine reaches the shared accuracy target, and the diffusion
// engine's work-ordering advantage over the everything-dirty pass
// engine shows up as fewer equivalent passes to target.
func TestRaceEnginesSmoke(t *testing.T) {
	rep, err := Run(Config{
		Docs:   2000,
		Peers:  16,
		Seed:   9,
		Target: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema = %q, want %q", rep.Schema, Schema)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("got %d runs, want one per registered engine (3)", len(rep.Runs))
	}
	for _, name := range []string{"pass", "chaotic", "diffusion"} {
		r := findRun(t, rep, name, "plain")
		if !r.ReachedTarget {
			t.Errorf("%s did not reach target %v (final err %v after %d steps)",
				name, rep.Target, r.FinalErr, r.Steps)
		}
		if len(r.Trajectory) == 0 {
			t.Errorf("%s recorded no trajectory", name)
		}
	}

	// The acceptance claim: residual-ordered diffusion beats the pass
	// engine on work to target.
	pass := findRun(t, rep, "pass", "plain")
	diff := findRun(t, rep, "diffusion", "plain")
	if diff.EquivPassesToTarget >= pass.EquivPassesToTarget {
		t.Errorf("diffusion took %.2f equivalent passes to target, pass took %.2f — diffusion must win",
			diff.EquivPassesToTarget, pass.EquivPassesToTarget)
	}
}

// TestRaceSubstratesAgree pins the substrate contract: plain, csr and
// csr_mmap decode identical adjacency, so a deterministic engine's
// trajectory is bit-identical across them (only wall-clock may vary).
func TestRaceSubstratesAgree(t *testing.T) {
	rep, err := Run(Config{
		Docs:       1000,
		Peers:      8,
		Seed:       5,
		Target:     1e-3,
		Engines:    []string{"pass", "diffusion"},
		Substrates: []string{"plain", "csr", "csr_mmap"},
		GraphFile:  filepath.Join(t.TempDir(), "race.csr"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []string{"pass", "diffusion"} {
		base := findRun(t, rep, eng, "plain")
		for _, sub := range []string{"csr", "csr_mmap"} {
			other := findRun(t, rep, eng, sub)
			if other.Steps != base.Steps || other.Messages != base.Messages {
				t.Fatalf("%s on %s: steps/messages %d/%d differ from plain %d/%d",
					eng, sub, other.Steps, other.Messages, base.Steps, base.Messages)
			}
			for i := range base.Trajectory {
				if other.Trajectory[i].ErrVsRef != base.Trajectory[i].ErrVsRef {
					t.Fatalf("%s on %s: step %d err %v differs from plain %v",
						eng, sub, i+1, other.Trajectory[i].ErrVsRef, base.Trajectory[i].ErrVsRef)
				}
			}
		}
	}
}

func TestRaceConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no docs", Config{Peers: 4, Target: 1e-3}},
		{"no target", Config{Docs: 100, Peers: 4}},
		{"unknown engine", Config{Docs: 100, Peers: 4, Target: 1e-3, Engines: []string{"nope"}}},
		{"unknown substrate", Config{Docs: 100, Peers: 4, Target: 1e-3, Substrates: []string{"hdf5"}}},
		{"mmap without file", Config{Docs: 100, Peers: 4, Target: 1e-3, Substrates: []string{"csr_mmap"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil {
				t.Fatalf("Run accepted bad config %+v", tc.cfg)
			}
		})
	}
}
