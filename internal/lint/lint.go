// Package lint is dprlint: a from-scratch static-analysis pass that
// enforces this repository's cross-cutting invariants — the ones the
// compiler cannot see and `go vet` does not know about.
//
// The analyzers encode contracts established by earlier PRs:
//
//   - determinism: the deterministic packages (rng, graph, core,
//     simnet, experiments, telemetry, csr, solver, search, netmodel,
//     engine, race) must be bit-reproducible from a seed.
//     Global math/rand, time.Now and map-iteration-ordered writes to
//     ordered outputs are forbidden there.
//   - wiredeadline: every net.Conn read/write in internal/wire must be
//     covered by a Set{Read,Write}Deadline in the same function, so a
//     hung peer surfaces as an error instead of a stuck goroutine.
//   - lockhold: no channel operations, connection I/O or blocking
//     calls while a sync.Mutex/RWMutex is held in the wire and p2p
//     packages.
//   - hotpath: functions annotated //dpr:hotpath (the sharded pass
//     pipeline) may not contain allocating constructs.
//   - codecsym: every encodeX has a bounds-checked decodeX, every
//     wire codec is exercised by a fuzz target, and the checkpoint
//     decoder keeps accepting every snapshot version back to the
//     compatibility floor.
//
// On top of those per-package checks sits an interprocedural engine
// (callgraph.go): a static call graph over every loaded package, with
// transitive summaries (which locks a call acquires, whether it
// allocates). Two rules use it:
//
//   - lockorder: the module-wide mutex-acquisition graph (lock A held
//     while lock B is taken, directly or through call edges) must be
//     acyclic, ruling out lock-inversion deadlocks across the wire
//     and p2p slot paths.
//   - hotpath-transitive: a //dpr:hotpath function may not call a
//     callee (transitively) that allocates.
//
// Diagnostics print as "file:line: [rule] message". A diagnostic is
// suppressed by a `//dpr:ignore rule[,rule]: reason` comment on the
// same line or the line directly above; the reason is mandatory, and
// a suppression that no longer suppresses anything is itself an error
// (rule "ignore"), so stale ignores rot visibly. The wiredeadline
// rule alternatively accepts `//dpr:nodeadline <reason>` (same
// placement, or in the enclosing function's doc comment) for
// connections whose lifetime is bounded some other way.
//
// Everything here is built on go/parser, go/types, go/ast and go/build
// alone — no analysis frameworks, matching the repository's
// from-scratch ethos.
package lint

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Rule names, used in diagnostics and //dpr:ignore comments.
const (
	RuleDeterminism  = "determinism"
	RuleWireDeadline = "wiredeadline"
	RuleLockHold     = "lockhold"
	RuleHotPath      = "hotpath"
	RuleCodecSym     = "codecsym"

	// Interprocedural rules, built on the call-graph engine.
	RuleLockOrder    = "lockorder"
	RuleHotPathTrans = "hotpath-transitive"

	// Meta rules: annotation hygiene and load-stage failures.
	RuleIgnore = "ignore"
	RuleLoad   = "load"
)

// AllRules lists every rule in reporting order.
var AllRules = []string{
	RuleDeterminism, RuleWireDeadline, RuleLockHold, RuleHotPath,
	RuleLockOrder, RuleCodecSym, RuleHotPathTrans, RuleIgnore,
}

// Diagnostic is one finding.
type Diagnostic struct {
	File    string // path as parsed (absolute or loader-relative)
	Line    int
	Column  int
	Rule    string
	Message string
}

// String renders the canonical "file:line: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Message)
}

// Config scopes the analyzers to the packages whose contracts they
// enforce. Paths are matched exactly against package import paths.
type Config struct {
	// DeterministicPkgs are the packages under the bit-reproducibility
	// contract (rule: determinism).
	DeterministicPkgs []string

	// DeadlinePkgs are the packages under the wire-deadline discipline
	// (rule: wiredeadline).
	DeadlinePkgs []string

	// LockPkgs are the packages under lock hygiene (rules: lockhold,
	// lockorder — the acquisition-order graph is rooted here, but its
	// call edges follow helpers into any loaded package).
	LockPkgs []string

	// CodecPkgs are the packages under encoder/decoder symmetry and
	// fuzz-coverage discipline (rule: codecsym).
	CodecPkgs []string

	// Rules optionally restricts which rules run; empty means all.
	Rules []string
}

// DefaultConfig returns the scoping for this repository's module.
func DefaultConfig(module string) Config {
	p := func(s string) string { return module + "/" + s }
	return Config{
		DeterministicPkgs: []string{
			p("internal/rng"), p("internal/graph"), p("internal/core"),
			p("internal/simnet"), p("internal/experiments"),
			p("internal/telemetry"), p("internal/csr"),
			p("internal/solver"), p("internal/search"), p("internal/netmodel"),
			p("internal/engine"), p("internal/race"),
		},
		DeadlinePkgs: []string{p("internal/wire")},
		LockPkgs:     []string{p("internal/wire"), p("internal/p2p")},
		CodecPkgs:    []string{p("internal/wire"), p("internal/p2p")},
	}
}

func (c Config) inScope(list []string, importPath string) bool {
	return slices.Contains(list, importPath)
}

func (c Config) ruleEnabled(rule string) bool {
	return len(c.Rules) == 0 || slices.Contains(c.Rules, rule)
}

// CheckRules rejects a Rules entry that is not in AllRules. Run would
// otherwise treat it as a subset that turns every rule off, the ignore
// rule included, and pass having checked nothing.
func (c Config) CheckRules() error {
	for _, r := range c.Rules {
		if !slices.Contains(AllRules, r) {
			return fmt.Errorf("unknown rule %q (known: %s)", r, strings.Join(AllRules, ", "))
		}
	}
	return nil
}

// sortDiagnostics orders findings by file, line, column, rule.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
}

// parseIgnore parses a //dpr:ignore comment body of the form
// "rule1,rule2: reason" ("*" or an empty rule list means every rule).
// The reason is everything after the first colon; reason == "" means
// the annotation is malformed, which the ignore meta-rule reports.
func parseIgnore(body string) (rules []string, reason string) {
	rulePart := strings.TrimSpace(body)
	if i := strings.Index(body, ":"); i >= 0 {
		rulePart = strings.TrimSpace(body[:i])
		reason = strings.TrimSpace(body[i+1:])
	} else {
		// Legacy form without a reason: treat the first space-separated
		// token as the rule list so the suppression still applies (one
		// actionable "missing reason" finding, not a cascade).
		rulePart = strings.SplitN(rulePart, " ", 2)[0]
	}
	for _, f := range strings.Split(rulePart, ",") {
		if f = strings.TrimSpace(f); f != "" {
			rules = append(rules, f)
		}
	}
	if len(rules) == 0 {
		rules = []string{"*"}
	}
	return rules, reason
}
