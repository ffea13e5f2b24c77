package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// program is the module-wide analysis context: every loaded package,
// the annotation index (with per-suppression use tracking, so stale
// ignores can be reported), and — once an interprocedural rule asks
// for it — the static call graph.
type program struct {
	cfg    Config
	loader *Loader
	pkgs   []*Package

	anns  *annotations
	graph *callGraph // nil until buildCallGraph

	lockGraph *GraphDoc // populated by checkLockOrder

	diags []Diagnostic
}

// pass is the per-package analysis context handed to each
// single-package analyzer. It shares the program's annotation index
// and diagnostic sink.
type pass struct {
	prog *program
	pkg  *Package
}

// pass returns the analysis context for one of the program's packages.
func (prog *program) pass(pkg *Package) *pass { return &pass{prog: prog, pkg: pkg} }

// Result is everything one analysis run produced: the findings plus
// the proof artifacts (call graph, lock-acquisition graph) that the
// interprocedural rules reasoned over.
type Result struct {
	Diags     []Diagnostic
	CallGraph *GraphDoc
	LockGraph *GraphDoc
}

// Run executes every configured analyzer over pkgs and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func Run(loader *Loader, pkgs []*Package, cfg Config) []Diagnostic {
	return Analyze(loader, pkgs, cfg).Diags
}

// Analyze is Run plus the graph artifacts.
func Analyze(loader *Loader, pkgs []*Package, cfg Config) Result {
	prog := &program{cfg: cfg, loader: loader, pkgs: pkgs}
	prog.collectAnnotations()

	// Per-package rules.
	for _, pkg := range pkgs {
		p := prog.pass(pkg)
		if cfg.ruleEnabled(RuleDeterminism) && cfg.inScope(cfg.DeterministicPkgs, pkg.ImportPath) {
			p.checkDeterminism()
		}
		if cfg.ruleEnabled(RuleWireDeadline) && cfg.inScope(cfg.DeadlinePkgs, pkg.ImportPath) {
			p.checkDeadlines()
		}
		if cfg.ruleEnabled(RuleLockHold) && cfg.inScope(cfg.LockPkgs, pkg.ImportPath) {
			p.checkLockHold()
		}
		if cfg.ruleEnabled(RuleHotPath) {
			p.checkHotPath()
		}
		if cfg.ruleEnabled(RuleCodecSym) && cfg.inScope(cfg.CodecPkgs, pkg.ImportPath) {
			p.checkCodecSym()
		}
	}

	// Interprocedural rules share one call graph over every package.
	if cfg.ruleEnabled(RuleLockOrder) || cfg.ruleEnabled(RuleHotPathTrans) {
		prog.buildCallGraph()
		if cfg.ruleEnabled(RuleLockOrder) {
			prog.checkLockOrder()
		}
		if cfg.ruleEnabled(RuleHotPathTrans) {
			prog.checkHotPathTransitive()
		}
	}
	prog.checkAnnotations()

	diags := append(prog.diags, loader.LoadDiagnostics()...)
	sortDiagnostics(diags)
	res := Result{Diags: diags, LockGraph: prog.lockGraph}
	if prog.graph != nil {
		res.CallGraph = prog.graph.doc(prog)
	}
	return res
}

// ignoreEntry is one //dpr:ignore comment. used flips when the entry
// actually suppresses a diagnostic; entries still false at the end of
// the run (for rules that ran) are themselves reported.
type ignoreEntry struct {
	pos    token.Pos
	rules  []string
	reason string
	used   bool
}

// lineKey addresses one source line.
type lineKey struct {
	file string
	line int
}

// annotations indexes every dpr: directive in the program by line.
type annotations struct {
	ignores    []*ignoreEntry
	byLine     map[lineKey][]*ignoreEntry
	nodeadline map[lineKey]bool
}

// collectAnnotations scans every comment in every package for
// //dpr:ignore and //dpr:nodeadline markers.
func (prog *program) collectAnnotations() {
	a := &annotations{
		byLine:     make(map[lineKey][]*ignoreEntry),
		nodeadline: make(map[lineKey]bool),
	}
	prog.anns = a
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := prog.loader.Fset.Position(c.Pos())
					at := lineKey{pos.Filename, pos.Line}
					if rest, ok := cutDirective(c.Text, "dpr:ignore"); ok {
						rules, reason := parseIgnore(rest)
						e := &ignoreEntry{pos: c.Pos(), rules: rules, reason: reason}
						a.ignores = append(a.ignores, e)
						a.byLine[at] = append(a.byLine[at], e)
					}
					if _, ok := cutDirective(c.Text, "dpr:nodeadline"); ok {
						a.nodeadline[at] = true
					}
				}
			}
		}
	}
}

// cutDirective matches a "//dpr:xxx" comment and returns what follows.
func cutDirective(comment, directive string) (rest string, ok bool) {
	body, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", false
	}
	body = strings.TrimSpace(body)
	rest, ok = strings.CutPrefix(body, directive)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != ':' {
		return "", false // e.g. dpr:ignorexyz
	}
	return strings.TrimSpace(rest), true
}

// suppressed reports whether rule is ignored at pos (same line or the
// line directly above), marking any matching entry as used.
func (prog *program) suppressed(rule string, pos token.Position) bool {
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, e := range prog.anns.byLine[lineKey{pos.Filename, line}] {
			for _, r := range e.rules {
				if r == rule || r == "*" {
					e.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// checkAnnotations enforces suppression hygiene (rule "ignore"):
// every //dpr:ignore names known rules and carries a reason, and every
// suppression whose rules all ran this pass must have suppressed
// something — a stale ignore is dead weight that hides future bugs.
func (prog *program) checkAnnotations() {
	if !prog.cfg.ruleEnabled(RuleIgnore) {
		return
	}
	for _, e := range prog.anns.ignores {
		bad := false
		for _, r := range e.rules {
			if r != "*" && !slices.Contains(AllRules, r) {
				prog.reportAt(RuleIgnore, e.pos,
					"//dpr:ignore names unknown rule %q (known: %s)", r, strings.Join(AllRules, ", "))
				bad = true
			}
		}
		if e.reason == "" {
			prog.reportAt(RuleIgnore, e.pos,
				"//dpr:ignore without a reason; write //dpr:ignore rule[,rule]: <why this finding is acceptable>")
			continue
		}
		if bad || e.used {
			continue
		}
		// Only call a suppression stale when every rule it names ran:
		// under -rules subsets an ignore for an unrun rule proves
		// nothing either way. Wildcards need the full rule set.
		ran := true
		for _, r := range e.rules {
			if r == "*" {
				ran = ran && len(prog.cfg.Rules) == 0
			} else {
				ran = ran && prog.cfg.ruleEnabled(r)
			}
		}
		if ran {
			prog.reportAt(RuleIgnore, e.pos,
				"unused //dpr:ignore suppression (%s): nothing was reported here; delete it",
				strings.Join(e.rules, ","))
		}
	}
}

// report records a diagnostic unless an ignore comment covers it.
func (prog *program) report(rule string, pos token.Pos, format string, args ...interface{}) {
	if !prog.suppressed(rule, prog.loader.Fset.Position(pos)) {
		prog.reportAt(rule, pos, format, args...)
	}
}

// reportAt records a diagnostic unconditionally (meta-rules are not
// themselves suppressible).
func (prog *program) reportAt(rule string, pos token.Pos, format string, args ...interface{}) {
	position := prog.loader.Fset.Position(pos)
	prog.diags = append(prog.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Rule:    rule,
		Message: sprintf(format, args...),
	})
}

// hasNoDeadline reports whether a //dpr:nodeadline annotation covers
// pos: same line, the line above, or the doc comment of fn.
func (p *pass) hasNoDeadline(pos token.Position, fn *ast.FuncDecl) bool {
	if m := p.prog.anns.nodeadline; m[lineKey{pos.Filename, pos.Line}] || m[lineKey{pos.Filename, pos.Line - 1}] {
		return true
	}
	if fn != nil && fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if _, ok := cutDirective(c.Text, "dpr:nodeadline"); ok {
				return true
			}
		}
	}
	return false
}

// report records a diagnostic unless an ignore comment covers it.
func (p *pass) report(rule string, pos token.Pos, format string, args ...interface{}) {
	p.prog.report(rule, pos, format, args...)
}

// typeOf resolves an expression's type (nil when unknown).
func (p *pass) typeOf(e ast.Expr) types.Type {
	return p.pkg.Info.TypeOf(e)
}

// objectOf resolves an identifier's object via Uses then Defs.
func (p *pass) objectOf(id *ast.Ident) types.Object {
	if o := p.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.pkg.Info.Defs[id]
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func (p *pass) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.objectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// calleePkg returns the defining package path and name of a call's
// callee function or method ("", "" when not resolvable).
func (p *pass) calleePkg(call *ast.CallExpr) (pkgPath, name string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	fn, ok := p.objectOf(id).(*types.Func)
	if !ok {
		return "", ""
	}
	if fn.Pkg() == nil {
		return "", fn.Name()
	}
	return fn.Pkg().Path(), fn.Name()
}

// funcScopes yields every function scope in the package: each
// FuncDecl body and each FuncLit body, with nested literals excluded
// from the enclosing scope's statement walk (walkScope).
type funcScope struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

func (p *pass) funcScopes() []funcScope {
	var scopes []funcScope
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scopes = append(scopes, funcScope{decl: fd, body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					scopes = append(scopes, funcScope{decl: fd, lit: fl, body: fl.Body})
				}
				return true
			})
		}
	}
	return scopes
}

// walkScope visits every node in a scope's body without descending
// into nested function literals.
func walkScope(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// namedType reports whether t is, or points to, a named type of
// package pkgPath, and one of names when any are given.
func namedType(t types.Type, pkgPath string, names ...string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath &&
		(len(names) == 0 || slices.Contains(names, obj.Name()))
}

func sprintf(format string, args ...interface{}) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}
