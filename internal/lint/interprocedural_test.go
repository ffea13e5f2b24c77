package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLockOrderFixture(t *testing.T) {
	checkWants(t, "lockorder", loadFixture(t, "lockorder", RuleLockOrder))
}

func TestCodecSymFixture(t *testing.T) {
	checkWants(t, "codecsym", loadFixture(t, "codecsym", RuleCodecSym))
}

func TestCodecSymVersionWindowFixture(t *testing.T) {
	checkWants(t, "codecsymver", loadFixture(t, "codecsymver", RuleCodecSym))
}

func TestCodecSymFloorFixture(t *testing.T) {
	checkWants(t, "codecsymfloor", loadFixture(t, "codecsymfloor", RuleCodecSym))
}

func TestHotPathTransitiveFixture(t *testing.T) {
	checkWants(t, "hotpathtrans", loadFixture(t, "hotpathtrans", RuleHotPathTrans))
}

// TestIgnoreHygieneFixture runs with every rule enabled (the unused-
// suppression check only fires when the named rules actually ran).
func TestIgnoreHygieneFixture(t *testing.T) {
	ip := "fixture/ignorehygiene"
	loader := newLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "ignorehygiene"), ip)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	cfg := Config{DeterministicPkgs: []string{ip}}
	checkWants(t, "ignorehygiene", Run(loader, []*Package{pkg}, cfg))
}

// TestAnalyzeGraphArtifacts pins the artifact contract: an Analyze
// run with the interprocedural rules enabled returns both graphs,
// deterministically sorted, with the edges the fixtures establish.
func TestAnalyzeGraphArtifacts(t *testing.T) {
	ip := "fixture/lockorder"
	loader := newLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "lockorder"), ip)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	cfg := Config{LockPkgs: []string{ip}}
	res := Analyze(loader, []*Package{pkg}, cfg)
	if res.CallGraph == nil || res.LockGraph == nil {
		t.Fatalf("expected both graph artifacts, got call=%v lock=%v", res.CallGraph, res.LockGraph)
	}
	if res.CallGraph.Name != "callgraph" || res.LockGraph.Name != "lockgraph" {
		t.Fatalf("artifact names = %q, %q", res.CallGraph.Name, res.LockGraph.Name)
	}
	if len(res.CallGraph.Nodes) == 0 || len(res.CallGraph.Edges) == 0 {
		t.Fatal("call graph is empty")
	}
	for i := 1; i < len(res.LockGraph.Edges); i++ {
		a, b := res.LockGraph.Edges[i-1], res.LockGraph.Edges[i]
		if a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Fatalf("lock graph edges not sorted: %v before %v", a, b)
		}
	}
	wantEdge := func(from, to, kind string) {
		t.Helper()
		for _, e := range res.LockGraph.Edges {
			if e.From == from && e.To == to && e.Kind == kind {
				return
			}
		}
		t.Errorf("lock graph missing edge %s -> %s (%s); have %v", from, to, kind, res.LockGraph.Edges)
	}
	wantEdge("lockorder.pair.a", "lockorder.pair.b", "direct")
	wantEdge("lockorder.pair.b", "lockorder.pair.a", "direct")
	wantEdge("lockorder.vc.x", "lockorder.vc.y", "via-call")
	dot := res.LockGraph.Dot()
	if !strings.Contains(dot, "digraph \"lockgraph\"") || !strings.Contains(dot, "lockorder.pair.a") {
		t.Fatalf("dot rendering malformed:\n%s", dot)
	}
}

// writeModule materializes a throwaway module for loader robustness
// tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const testGoMod = "module brokenmod\n\ngo 1.22\n"

// TestLoadSurvivesParseError: a file that does not parse produces a
// "load" diagnostic, and the rest of the module still loads and
// lints.
func TestLoadSurvivesParseError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":        testGoMod,
		"bad/broken.go": "package bad\n\nfunc oops( {\n",
		"bad/fine.go":   "package bad\n\nfunc ok() int { return 1 }\n",
		"good/good.go":  "package good\n\nfunc fine() {}\n",
	})
	loader := newLoader(t)
	pkgs, err := loader.LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule should survive a parse error, got: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	if want := "brokenmod/good"; !containsString(paths, want) {
		t.Fatalf("loaded packages %v, want at least %s", paths, want)
	}
	diags := Run(loader, pkgs, Config{})
	if !hasLoadDiag(diags, "does not parse") {
		t.Fatalf("expected a 'does not parse' load diagnostic, got %v", diags)
	}
}

// TestLoadSurvivesTypeError: a package that fails type-checking is
// dropped with diagnostics; sibling packages still lint.
func TestLoadSurvivesTypeError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":        testGoMod,
		"broken/bad.go": "package broken\n\nfunc f() int { return undefinedName }\n",
		"good/good.go":  "package good\n\nfunc fine() {}\n",
	})
	loader := newLoader(t)
	pkgs, err := loader.LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule should survive a type error, got: %v", err)
	}
	for _, p := range pkgs {
		if p.ImportPath == "brokenmod/broken" {
			t.Fatal("type-broken package should have been dropped")
		}
	}
	diags := Run(loader, pkgs, Config{})
	if !hasLoadDiag(diags, "type error") {
		t.Fatalf("expected a 'type error' load diagnostic, got %v", diags)
	}
}

// TestLoadSurvivesExcludedPackage: a package whose files are all
// excluded by build constraints is diagnosed, not fatal.
func TestLoadSurvivesExcludedPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":       testGoMod,
		"skip/skip.go": "//go:build never_enabled_tag\n\npackage skip\n\nfunc f() {}\n",
		"good/good.go": "package good\n\nfunc fine() {}\n",
	})
	loader := newLoader(t)
	pkgs, err := loader.LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule should survive an excluded package, got: %v", err)
	}
	for _, p := range pkgs {
		if p.ImportPath == "brokenmod/skip" {
			t.Fatal("excluded package should not be in the analysis set")
		}
	}
	diags := Run(loader, pkgs, Config{})
	if !hasLoadDiag(diags, "no files matching the host build configuration") {
		t.Fatalf("expected a build-configuration load diagnostic, got %v", diags)
	}
}

// TestParseIgnore pins the suppression grammar.
func TestParseIgnore(t *testing.T) {
	cases := []struct {
		body   string
		rules  []string
		reason string
	}{
		{"lockhold: deadline bounds the hold", []string{"lockhold"}, "deadline bounds the hold"},
		{"lockhold,hotpath: shared scratch", []string{"lockhold", "hotpath"}, "shared scratch"},
		{"*: everything justified", []string{"*"}, "everything justified"},
		{": reason with empty rules", []string{"*"}, "reason with empty rules"},
		{"lockhold", []string{"lockhold"}, ""},
		{"lockhold legacy trailing words", []string{"lockhold"}, ""},
		{"", []string{"*"}, ""},
	}
	for _, c := range cases {
		rules, reason := parseIgnore(c.body)
		if strings.Join(rules, "|") != strings.Join(c.rules, "|") || reason != c.reason {
			t.Errorf("parseIgnore(%q) = %v, %q; want %v, %q", c.body, rules, reason, c.rules, c.reason)
		}
	}
}

func containsString(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

func hasLoadDiag(diags []Diagnostic, substr string) bool {
	for _, d := range diags {
		if d.Rule == RuleLoad && strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}
