package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture packages under testdata/src/<name> declare their expected
// diagnostics inline with backtick-quoted `// want` comments. Each
// want is a regular expression matched (unanchored) against the
// "[rule] message" rendering of a diagnostic reported on that line;
// every diagnostic must match a want and every want must be matched.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// loadFixture type-checks testdata/src/<name> under the import path
// fixture/<name>, scoped into every rule list but restricted to the
// single rule under test, mirroring how DefaultConfig scopes the real
// module.
func loadFixture(t *testing.T, name, rule string) []Diagnostic {
	t.Helper()
	ip := "fixture/" + name
	loader := newLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), ip)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	cfg := Config{
		DeterministicPkgs: []string{ip},
		DeadlinePkgs:      []string{ip},
		LockPkgs:          []string{ip},
		CodecPkgs:         []string{ip},
		Rules:             []string{rule},
	}
	return Run(loader, []*Package{pkg}, cfg)
}

// newLoader returns a fresh loader, and skips the test under -race
// (see raceDetector).
func newLoader(t *testing.T) *Loader {
	t.Helper()
	if raceDetector {
		t.Skip("static analysis starts no goroutines; make ci runs this package without -race")
	}
	return NewLoader()
}

func checkWants(t *testing.T, name string, diags []Diagnostic) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*want)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				k := key{path, i + 1}
				wants[k] = append(wants[k], &want{re: re})
			}
		}
	}
	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
		matched := false
		for _, w := range wants[key{d.File, d.Line}] {
			if !w.matched && w.re.MatchString(rendered) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want `%s`", k.file, k.line, w.re)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkWants(t, "determinism", loadFixture(t, "determinism", RuleDeterminism))
}

func TestWireDeadlineFixture(t *testing.T) {
	checkWants(t, "wiredeadline", loadFixture(t, "wiredeadline", RuleWireDeadline))
}

func TestLockHoldFixture(t *testing.T) {
	checkWants(t, "lockhold", loadFixture(t, "lockhold", RuleLockHold))
}

func TestHotPathFixture(t *testing.T) {
	checkWants(t, "hotpath", loadFixture(t, "hotpath", RuleHotPath))
}

// TestTelemetrySnapFixture pins the determinism rule's coverage of
// snapshot rendering: exposition output or point lists built inside a
// range over a map are flagged, the sorted-keys form is clean. The
// live internal/telemetry package is in DeterministicPkgs, so
// TestRepoLintsClean holds it to exactly this standard.
func TestTelemetrySnapFixture(t *testing.T) {
	checkWants(t, "telemetrysnap", loadFixture(t, "telemetrysnap", RuleDeterminism))
}

// TestRepoLintsClean is the gate's own gate: the repository must
// satisfy every invariant dprlint enforces (modulo the annotated,
// justified exceptions).
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root := filepath.Join("..", "..")
	loader := newLoader(t)
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	module, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(loader, pkgs, DefaultConfig(module)) {
		t.Errorf("repository violates its own invariants: %s", d)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "x.go", Line: 7, Column: 3, Rule: RuleHotPath, Message: "boom"}
	if got, want := d.String(), "x.go:7: [hotpath] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestCutDirective(t *testing.T) {
	cases := []struct {
		comment, directive, rest string
		ok                       bool
	}{
		{"//dpr:ignore lockhold reason", "dpr:ignore", "lockhold reason", true},
		{"// dpr:nodeadline why", "dpr:nodeadline", "why", true},
		{"//dpr:ignore", "dpr:ignore", "", true},
		{"//dpr:ignorexyz", "dpr:ignore", "", false},
		{"// plain comment", "dpr:ignore", "", false},
	}
	for _, c := range cases {
		rest, ok := cutDirective(c.comment, c.directive)
		if ok != c.ok || rest != c.rest {
			t.Errorf("cutDirective(%q, %q) = %q, %v; want %q, %v",
				c.comment, c.directive, rest, ok, c.rest, c.ok)
		}
	}
}

// TestUnknownRuleRejected: a misspelt or retired rule name is an
// error, not a rule subset that turns every rule off.
func TestUnknownRuleRejected(t *testing.T) {
	cfg := DefaultConfig("dpr")
	for _, name := range []string{"lockordr", "counterflow", "goroutinelife", "atomicmix"} {
		cfg.Rules = []string{RuleLockOrder, name}
		err := cfg.CheckRules()
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), RuleHotPathTrans) {
			t.Fatalf("CheckRules() = %v, want an error naming %q and listing AllRules", err, name)
		}
	}
	cfg.Rules = AllRules
	if err := cfg.CheckRules(); err != nil {
		t.Fatalf("CheckRules(AllRules) = %v", err)
	}
}

// TestSelectRejectsUnmatchedSuffix: a package suffix that names no
// package is an error, not an empty run. A package that failed to load
// is known to the loader, so naming it is not.
func TestSelectRejectsUnmatchedSuffix(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":                testGoMod,
		"internal/wire/wire.go": "package wire\n",
		"broken/bad.go":         "package broken\n\nfunc f() int { return undefinedName }\n",
	})
	loader := newLoader(t)
	pkgs, err := loader.LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := loader.Select(pkgs, []string{"internal/wire/", "broken"})
	if err != nil || len(kept) != 1 || kept[0].ImportPath != "brokenmod/internal/wire" {
		t.Fatalf("Select = %v, %v; want brokenmod/internal/wire alone", kept, err)
	}
	if _, err := loader.Select(pkgs, []string{"internal/wire", "internal/wrie"}); err == nil || !strings.Contains(err.Error(), `"internal/wrie"`) {
		t.Fatalf("Select(internal/wrie) = %v, want an error naming it", err)
	}
}
