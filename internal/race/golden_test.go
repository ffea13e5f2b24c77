package race

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenReport runs a tiny fully deterministic race: the clock is a
// fake monotonic counter, and everything else — graph, placement,
// message totals, error trajectory — is a pure function of the seed.
// The serialized report is therefore byte-stable and pins the
// BENCH_engines.json schema.
func goldenReport(t *testing.T) []byte {
	t.Helper()
	ns := int64(0)
	rep, err := Run(Config{
		Docs:       300,
		Peers:      10,
		Seed:       7,
		Target:     1e-2,
		MaxSteps:   25,
		Engines:    []string{"pass", "chaotic", "diffusion"},
		Substrates: []string{"plain", "csr"},
		Clock:      func() int64 { ns += 1000; return ns },
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// compareGolden checks got against testdata/<name>, rewriting the file
// instead when UPDATE_GOLDEN=1 is set — the same regeneration protocol
// as the /metrics and /trace goldens.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (rerun with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file; if the schema change is intentional, bump race.Schema and rerun with UPDATE_GOLDEN=1.\n--- got ---\n%.2000s\n--- want ---\n%.2000s", name, got, want)
	}
}

func TestRaceReportGolden(t *testing.T) {
	compareGolden(t, "race_report.golden.json", goldenReport(t))
}

// TestRaceReportSchema asserts the key set independently of the
// golden bytes, so a reader knows exactly which fields are contract.
func TestRaceReportSchema(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(goldenReport(t), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"schema", "docs", "edges", "peers", "seed", "target", "runs"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("report missing top-level %q", key)
		}
	}
	if doc["schema"] != Schema {
		t.Fatalf("schema = %v, want %v", doc["schema"], Schema)
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 6 {
		t.Fatalf("runs = %d entries, want 3 engines x 2 substrates", len(runs))
	}
	run, ok := runs[0].(map[string]any)
	if !ok {
		t.Fatalf("run 0 = %v", runs[0])
	}
	for _, key := range []string{
		"engine", "substrate", "steps", "converged", "reached_target",
		"messages", "wall_nanos", "steps_to_target", "equiv_passes_to_target",
		"messages_to_target", "final_err", "trajectory",
	} {
		if _, present := run[key]; !present {
			t.Fatalf("run missing %q: %v", key, run)
		}
	}
	traj, ok := run["trajectory"].([]any)
	if !ok || len(traj) == 0 {
		t.Fatalf("trajectory = %v", run["trajectory"])
	}
	pt, ok := traj[0].(map[string]any)
	if !ok {
		t.Fatalf("point 0 = %v", traj[0])
	}
	for _, key := range []string{"step", "equiv_passes", "err_vs_ref", "residual", "messages", "nanos"} {
		if _, present := pt[key]; !present {
			t.Fatalf("trajectory point missing %q: %v", key, pt)
		}
	}
}
