package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The call-graph engine. The interprocedural rules (lockorder,
// hotpath-transitive) need to reason about what happens *behind* a
// call: does this callee acquire a lock, or allocate? The engine
// builds one static call graph over every loaded package and computes
// transitive fact summaries over it.
//
// Resolution is intentionally conservative and purely static:
//
//   - direct calls and method calls on concrete types resolve to
//     their declarations (one node per FuncDecl with a body);
//   - calls through interface values, function-typed variables and
//     fields do not resolve — no edge, so facts behind them are
//     invisible. Both rules treat "cannot resolve" as "assume
//     silent", where flagging would drown the signal;
//   - a call spawned with `go` is recorded but excluded from
//     same-goroutine fact propagation (the spawner does not hold its
//     locks, pay its allocations, or block on it);
//   - calls inside nested function literals are recorded as edges of
//     the enclosing declaration (the literal usually runs there —
//     sync.Once.Do, defer) but excluded from lock and allocation
//     summaries, where assuming it runs synchronously would
//     manufacture false positives.
type callGraph struct {
	nodes []*funcNode
	byObj map[*types.Func]*funcNode
}

// funcNode is one declared function or method with a body.
type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	pass *pass // per-package type info helper

	calls []callSite
}

// callSite is one resolved static call edge.
type callSite struct {
	callee *funcNode
	pos    token.Pos
	viaGo  bool // spawned with a go statement
	inLit  bool // occurs inside a nested function literal
}

// name returns the node's fully qualified name for artifacts and
// diagnostics, e.g. "dpr/internal/wire.(*Peer).stop".
func (n *funcNode) name() string { return n.obj.FullName() }

// buildCallGraph constructs the module call graph over prog.pkgs.
func (prog *program) buildCallGraph() {
	if prog.graph != nil {
		return
	}
	g := &callGraph{byObj: make(map[*types.Func]*funcNode)}
	prog.graph = g

	passes := make(map[*Package]*pass)
	for _, pkg := range prog.pkgs {
		passes[pkg] = prog.pass(pkg)
	}

	// Register every declared function first, so forward and
	// cross-package references resolve regardless of order.
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{obj: obj, decl: fd, pkg: pkg, pass: passes[pkg]}
				g.byObj[obj] = node
				g.nodes = append(g.nodes, node)
			}
		}
	}

	// Resolve call edges.
	for _, n := range g.nodes {
		n.collectCalls(g)
	}
}

// collectCalls walks the node's body resolving every call expression.
func (n *funcNode) collectCalls(g *callGraph) {
	goCalls := make(map[*ast.CallExpr]bool)
	var walk func(node ast.Node, inLit bool)
	walk = func(node ast.Node, inLit bool) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if node != x {
					walk(x.Body, true)
					return false
				}
			case *ast.GoStmt:
				goCalls[x.Call] = true
			case *ast.CallExpr:
				if callee := n.pass.resolveCallee(g, x); callee != nil {
					n.calls = append(n.calls, callSite{
						callee: callee,
						pos:    x.Pos(),
						viaGo:  goCalls[x],
						inLit:  inLit,
					})
				}
			}
			return true
		})
	}
	walk(n.decl.Body, false)
}

// resolveCallee maps a call expression to its static callee node
// (nil for builtins, stdlib, interface dispatch, func values).
func (p *pass) resolveCallee(g *callGraph, call *ast.CallExpr) *funcNode {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
			continue
		case *ast.IndexExpr: // generic instantiation
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	obj, ok := p.objectOf(id).(*types.Func)
	if !ok {
		return nil
	}
	return g.byObj[obj]
}

// fact is one propagated property of a function: either observed
// directly in its body (via == nil; pos/desc locate it) or inherited
// from a callee (via != nil; pos is the call site).
type fact struct {
	pos  token.Pos
	desc string
	via  *funcNode
}

// factSet maps fact keys (rule-chosen: a lock object or the
// allocation marker) to their witness.
type factSet map[any]fact

// propagate computes the transitive closure of per-function facts
// over same-goroutine call edges: a function has every fact of every
// callee it invokes synchronously outside nested literals. direct is
// not mutated; the result maps every node with at least one fact.
func (g *callGraph) propagate(direct map[*funcNode]factSet) map[*funcNode]factSet {
	// callers[m] lists (caller, call site) pairs for propagation.
	type callerEdge struct {
		caller *funcNode
		pos    token.Pos
	}
	callers := make(map[*funcNode][]callerEdge)
	for _, n := range g.nodes {
		for _, c := range n.calls {
			if c.viaGo || c.inLit {
				continue
			}
			callers[c.callee] = append(callers[c.callee], callerEdge{caller: n, pos: c.pos})
		}
	}

	result := make(map[*funcNode]factSet, len(direct))
	var work []*funcNode
	for n, fs := range direct {
		set := make(factSet, len(fs))
		for k, f := range fs {
			set[k] = f
		}
		result[n] = set
		work = append(work, n)
	}
	// Deterministic worklist order keeps witness chains stable.
	sort.Slice(work, func(i, j int) bool { return work[i].name() < work[j].name() })
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, ce := range callers[n] {
			set := result[ce.caller]
			if set == nil {
				set = make(factSet)
				result[ce.caller] = set
			}
			changed := false
			for k := range result[n] {
				if _, ok := set[k]; !ok {
					set[k] = fact{pos: ce.pos, via: n}
					changed = true
				}
			}
			if changed {
				work = append(work, ce.caller)
			}
		}
	}
	return result
}

// origin follows a fact's via links back to its direct witness and
// returns it with the functions passed on the way. The links always
// terminate (a fact is installed at most once per node, inherited only
// from nodes that had it first).
func origin(facts map[*funcNode]factSet, key any, f fact) (fact, []*funcNode) {
	var via []*funcNode
	for f.via != nil {
		via = append(via, f.via)
		f = facts[f.via][key]
	}
	return f, via
}

// witnessChain renders a fact's provenance: "via a.b → c.d: desc at
// file:line".
func (prog *program) witnessChain(facts map[*funcNode]factSet, key any, f fact) string {
	f, via := origin(facts, key, f)
	pos := prog.loader.Fset.Position(f.pos)
	s := sprintf("%s at %s:%d", f.desc, shortFile(pos.Filename), pos.Line)
	if len(via) > 0 {
		hops := make([]string, len(via))
		for i, n := range via {
			hops[i] = n.shortName()
		}
		s = "via " + strings.Join(hops, " → ") + ": " + s
	}
	return s
}

// shortName renders pkg-local naming for messages: "(*Peer).stop".
func (n *funcNode) shortName() string {
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" }) + ")." + n.obj.Name()
	}
	return n.obj.Name()
}

// shortFile trims a path to its final two elements for messages.
func shortFile(path string) string {
	slash := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			slash++
			if slash == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}

// fieldOrVarObject resolves an expression denoting a field or
// package/local variable (possibly a chained selector like s.p.wg)
// to its canonical object, or nil.
func (p *pass) fieldOrVarObject(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.fieldOrVarObject(e.X)
	case *ast.Ident:
		if v, ok := p.objectOf(e).(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := p.objectOf(e.Sel).(*types.Var); ok {
			return v
		}
	}
	return nil
}

// ownerLabel renders a stable human label for a field or variable
// object: "Type.field" for struct fields (via the selector's receiver
// type), "pkg.var" for package-level variables, "func.var" locals.
func (p *pass) ownerLabel(e ast.Expr, obj types.Object) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		t := p.typeOf(sel.X)
		if t != nil {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
