package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkGoroutineLife proves that every goroutine spawned in the
// goroutine-scoped packages (wire, p2p) is joined on shutdown. PR 2's
// exactly-once delivery and PR 3's leak checks both depend on
// goroutines actually exiting when their owner shuts down: a sender
// loop that outlives its peer keeps retransmitting into a dead
// cluster, and a leaked acceptLoop holds its listener forever.
//
// The proof obligation for each `go` statement is two-sided:
//
//  1. the spawned body must signal its exit — call Done() on a
//     sync.WaitGroup (directly or through synchronous callees) or
//     close() a channel field;
//  2. that same WaitGroup must be Wait()ed (or that channel received
//     from) in a function reachable from a shutdown root: a method
//     named Close, Stop, Shutdown or Kill (any case) anywhere in the
//     loaded program, following synchronous call edges only — a
//     goroutine spawned *by* Close does not count as Close waiting.
//
// A goroutine that intentionally outlives its spawner carries
// `//dpr:detached <reason>` on the go statement; the reason is
// mandatory.
func (prog *program) checkGoroutineLife() {
	g := prog.graph
	signals := g.propagate(prog.signalFacts())
	waiters, recvers := prog.joinSites()
	reach := g.reachableFrom(prog.shutdownRoots())

	joined := func(key any) (string, bool) {
		switch k := key.(type) {
		case wgKey:
			for _, n := range waiters[k.obj] {
				if reach[n] {
					return "", true
				}
			}
			return "WaitGroup " + k.label + " is never Wait()ed on a shutdown path", false
		case chanKey:
			for _, n := range recvers[k.obj] {
				if reach[n] {
					return "", true
				}
			}
			return "done channel " + k.label + " is never received on a shutdown path", false
		}
		return "", false
	}

	for _, pkg := range prog.pkgs {
		if !prog.cfg.inScope(prog.cfg.GoroutinePkgs, pkg.ImportPath) {
			continue
		}
		p := prog.pass(pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				prog.checkGoStmt(p, g, gs, signals, joined)
				return true
			})
		}
	}
}

// checkGoStmt audits one go statement against the join obligations.
func (prog *program) checkGoStmt(p *pass, g *callGraph, gs *ast.GoStmt,
	signals map[*funcNode]factSet, joined func(any) (string, bool)) {

	pos := prog.loader.Fset.Position(gs.Pos())
	if reason, found := prog.detachedAt(pos); found {
		if reason == "" {
			prog.report(RuleGoroutineLife, gs.Pos(),
				"//dpr:detached requires a reason: //dpr:detached <why this goroutine may outlive shutdown>")
		}
		return
	}

	// What does the spawned body signal on exit?
	var body factSet
	what := "func literal"
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		body = p.litSignals(g, lit, signals)
	} else if callee := p.resolveCallee(g, gs.Call); callee != nil {
		body = signals[callee]
		what = callee.shortName()
	} else {
		prog.report(RuleGoroutineLife, gs.Pos(),
			"go statement spawns a dynamic callee the analyzer cannot resolve; restructure to a direct call or annotate //dpr:detached <reason>")
		return
	}

	if len(body) == 0 {
		prog.report(RuleGoroutineLife, gs.Pos(),
			"goroutine %s never signals its exit (no WaitGroup.Done or close(done) on any path); join it from the owner's Close/Stop path or annotate //dpr:detached <reason>", what)
		return
	}
	var firstWhy string
	for key := range body {
		why, ok := joined(key)
		if ok {
			return // provably joined through this signal
		}
		if firstWhy == "" || why < firstWhy {
			firstWhy = why
		}
	}
	prog.report(RuleGoroutineLife, gs.Pos(),
		"goroutine %s signals its exit but is never joined: %s (reachable shutdown roots: Close/Stop/Shutdown/Kill); annotate //dpr:detached <reason> if this is intentional", what, firstWhy)
}

// wgKey identifies a WaitGroup field/variable; chanKey a channel.
type wgKey struct {
	obj   types.Object
	label string
}
type chanKey struct {
	obj   types.Object
	label string
}

// signalFacts collects, per function, the WaitGroups it Done()s and
// the channels it close()s — anywhere in the body, nested literals
// included (deferred literals are the classic Done idiom).
func (prog *program) signalFacts() map[*funcNode]factSet {
	direct := make(map[*funcNode]factSet)
	for _, n := range prog.graph.nodes {
		set := make(factSet)
		collectSignals(n.pass, n.decl.Body, set)
		if len(set) > 0 {
			direct[n] = set
		}
	}
	return direct
}

// litSignals computes the signal set of a spawned function literal:
// its own body plus everything its resolved synchronous callees
// signal.
func (p *pass) litSignals(g *callGraph, lit *ast.FuncLit, signals map[*funcNode]factSet) factSet {
	set := make(factSet)
	collectSignals(p, lit.Body, set)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := p.resolveCallee(g, call); callee != nil {
			for k, f := range signals[callee] {
				if _, dup := set[k]; !dup {
					set[k] = fact{pos: call.Pos(), via: callee, desc: f.desc}
				}
			}
		}
		return true
	})
	return set
}

// collectSignals records Done() calls on WaitGroups and close() of
// channel fields/variables found under root.
func collectSignals(p *pass, root ast.Node, set factSet) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if namedType(p.typeOf(sel.X), "sync", "WaitGroup") {
				if obj := p.fieldOrVarObject(sel.X); obj != nil {
					label := p.ownerLabel(sel.X, obj)
					set[wgKey{obj, label}] = fact{pos: call.Pos(), desc: label + ".Done()"}
				}
			}
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			if _, builtin := p.objectOf(id).(*types.Builtin); builtin {
				if obj := p.fieldOrVarObject(call.Args[0]); obj != nil {
					if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
						label := p.ownerLabel(call.Args[0], obj)
						set[chanKey{obj, label}] = fact{pos: call.Pos(), desc: "close(" + label + ")"}
					}
				}
			}
		}
		return true
	})
}

// joinSites indexes, module-wide, which functions Wait() on each
// WaitGroup and which receive from each channel object.
func (prog *program) joinSites() (waiters, recvers map[types.Object][]*funcNode) {
	waiters = make(map[types.Object][]*funcNode)
	recvers = make(map[types.Object][]*funcNode)
	for _, n := range prog.graph.nodes {
		p := n.pass
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && namedType(p.typeOf(sel.X), "sync", "WaitGroup") {
					if obj := p.fieldOrVarObject(sel.X); obj != nil {
						waiters[obj] = append(waiters[obj], n)
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					if obj := p.fieldOrVarObject(x.X); obj != nil {
						recvers[obj] = append(recvers[obj], n)
					}
				}
			case *ast.RangeStmt:
				// A resolved field or variable always has a type.
				if obj := p.fieldOrVarObject(x.X); obj != nil {
					if _, isChan := p.typeOf(x.X).Underlying().(*types.Chan); isChan {
						recvers[obj] = append(recvers[obj], n)
					}
				}
			}
			return true
		})
	}
	return waiters, recvers
}

// shutdownRoots returns every function whose name marks it as part of
// a teardown path.
func (prog *program) shutdownRoots() []*funcNode {
	var roots []*funcNode
	for _, n := range prog.graph.nodes {
		switch n.obj.Name() {
		case "Close", "close", "Stop", "stop", "Shutdown", "shutdown", "Kill", "kill":
			roots = append(roots, n)
		}
	}
	return roots
}
