package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockEdgeKey identifies one acquisition-order edge: to is taken
// while from is held.
type lockEdgeKey struct{ from, to types.Object }

// lockEdgeInfo is the first witness recorded for an edge.
type lockEdgeInfo struct {
	pos  token.Pos
	via  *funcNode // callee carrying the acquisition; nil for direct
	kind string    // "direct" or "via-call"
}

// checkLockOrder builds the module-wide mutex-acquisition-order graph
// and fails on cycles. An edge A → B means some goroutine takes B
// while holding A — directly in one critical section, or through a
// synchronous call chain whose callee takes B. Two goroutines taking
// the same pair of locks in opposite orders is the classic inversion
// deadlock; keeping the graph acyclic rules it out by construction,
// which matters here because the wire slot path (Peer.mu → sender.mu)
// and the p2p membership path cross package boundaries where no
// single reviewer sees both orders.
//
// Held regions are collected lexically (lockRegions, as for
// lockhold) from functions in the LockPkgs packages; what a callee
// acquires is the transitive closure of its Lock/RLock calls over
// synchronous call edges into any loaded package. Go-spawned callees
// are excluded (the spawner's locks are not held on the new
// goroutine's stack — it has its own ordering obligations), as are
// nested literals when summarizing callees.
//
// The full graph — not just the cycles — is exported as the lockgraph
// artifact so reviewers can audit the order the code has implicitly
// committed to.
func (prog *program) checkLockOrder() {
	g := prog.graph
	acquires := g.propagate(prog.acquireFacts())

	edges := make(map[lockEdgeKey]lockEdgeInfo)
	labels := make(map[types.Object]string)
	var order []types.Object // first-seen order for determinism

	note := func(obj types.Object, label string) {
		if _, ok := labels[obj]; !ok {
			labels[obj] = label
			order = append(order, obj)
		}
	}
	addEdge := func(from, to types.Object, info lockEdgeInfo) {
		k := lockEdgeKey{from, to}
		if _, dup := edges[k]; !dup {
			edges[k] = info
		}
	}

	for _, pkg := range prog.pkgs {
		if !prog.cfg.inScope(prog.cfg.LockPkgs, pkg.ImportPath) {
			continue
		}
		p := prog.pass(pkg)
		for _, scope := range p.funcScopes() {
			regions := p.lockRegions(scope, true)
			if len(regions) == 0 {
				continue
			}
			for _, r := range regions {
				note(r.obj, r.label)
			}
			goCalls := make(map[*ast.CallExpr]bool)
			walkScope(scope.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					goCalls[n.Call] = true
				case *ast.CallExpr:
					if m, ok := p.mutexCallX(n, "Lock", "RLock"); ok {
						if m.obj != nil {
							note(m.obj, m.label)
							for _, h := range held(regions, n.Pos()) {
								if h.obj != m.obj {
									addEdge(h.obj, m.obj, lockEdgeInfo{pos: n.Pos(), kind: "direct"})
								}
							}
						}
						return true
					}
					if goCalls[n] {
						return true // spawned goroutine does not inherit held locks
					}
					callee := p.resolveCallee(g, n)
					if callee == nil {
						return true
					}
					hs := held(regions, n.Pos())
					if len(hs) == 0 {
						return true
					}
					for key, f := range acquires[callee] {
						lo, ok := key.(types.Object)
						if !ok {
							continue
						}
						witness, _ := origin(acquires, key, f)
						note(lo, witness.desc) // the direct witness carries the label
						for _, h := range hs {
							if h.obj != lo {
								addEdge(h.obj, lo, lockEdgeInfo{pos: n.Pos(), via: callee, kind: "via-call"})
							}
						}
					}
				}
				return true
			})
		}
	}

	prog.lockGraph = lockGraphDoc(prog, order, labels, edges)
	prog.reportLockCycles(order, labels, edges)
}

// acquireFacts collects, per function, the mutexes its body locks
// (decl scope only — nested literals run on their own schedule). The
// fact key is the mutex's types.Object; desc is its label.
func (prog *program) acquireFacts() map[*funcNode]factSet {
	direct := make(map[*funcNode]factSet)
	for _, n := range prog.graph.nodes {
		p := n.pass
		var set factSet
		walkScope(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if m, ok := p.mutexCallX(call, "Lock", "RLock"); ok && m.obj != nil {
				if set == nil {
					set = make(factSet)
				}
				if _, dup := set[m.obj]; !dup {
					set[m.obj] = fact{pos: call.Pos(), desc: m.label}
				}
			}
			return true
		})
		if set != nil {
			direct[n] = set
		}
	}
	return direct
}

// lockLabel renders a globally unique, stable label for a mutex
// object: "wire.Peer.mu" for fields, "wire.connMu" for package vars.
func lockLabel(p *pass, e ast.Expr, obj types.Object) string {
	base := p.ownerLabel(e, obj)
	if v, ok := obj.(*types.Var); ok && v.IsField() && obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + base
	}
	return base
}

// reportLockCycles finds strongly connected components of the
// acquisition graph and reports one diagnostic per cycle, with a
// concrete lock-by-lock path and the source witness of each hop.
func (prog *program) reportLockCycles(order []types.Object,
	labels map[types.Object]string, edges map[lockEdgeKey]lockEdgeInfo) {

	succ := make(map[types.Object][]types.Object)
	for k := range edges {
		succ[k.from] = append(succ[k.from], k.to)
	}
	for _, ss := range succ {
		sort.Slice(ss, func(i, j int) bool { return labels[ss[i]] < labels[ss[j]] })
	}

	// Tarjan's SCC, iterative. Every SCC with more than one node (or a
	// self-loop) contains at least one cycle.
	index := make(map[types.Object]int)
	low := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	var stack []types.Object
	var sccs [][]types.Object
	next := 0

	type frame struct {
		v  types.Object
		ci int
	}
	var dfs func(root types.Object)
	dfs = func(root types.Object) {
		frames := []frame{{v: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ci == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ci < len(succ[v]) {
				w := succ[v][f.ci]
				f.ci++
				if _, seen := index[w]; !seen {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var scc []types.Object
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			dfs(v)
		}
	}

	for _, scc := range sccs {
		cyclic := len(scc) > 1
		if !cyclic {
			if _, self := edges[lockEdgeKey{scc[0], scc[0]}]; self {
				cyclic = true
			}
		}
		if !cyclic {
			continue
		}
		inSCC := make(map[types.Object]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		// Walk a concrete cycle: from the label-smallest member, always
		// take the label-smallest successor inside the SCC until a node
		// repeats.
		start := scc[0]
		for _, v := range scc {
			if labels[v] < labels[start] {
				start = v
			}
		}
		path := []types.Object{start}
		seen := map[types.Object]int{start: 0}
		for {
			v := path[len(path)-1]
			var nextHop types.Object
			found := false
			for _, w := range succ[v] {
				if inSCC[w] {
					nextHop = w
					found = true
					break
				}
			}
			if !found {
				break // defensive: SCC guarantees a successor
			}
			if at, dup := seen[nextHop]; dup {
				path = append(path[at:], nextHop)
				break
			}
			seen[nextHop] = len(path)
			path = append(path, nextHop)
		}
		if len(path) < 2 {
			continue
		}
		var hops []string
		var witness lockEdgeInfo
		for i := 0; i+1 < len(path); i++ {
			e := edges[lockEdgeKey{path[i], path[i+1]}]
			if i == 0 {
				witness = e
			}
			pos := prog.loader.Fset.Position(e.pos)
			hop := sprintf("%s → %s (%s:%d", labels[path[i]], labels[path[i+1]], shortFile(pos.Filename), pos.Line)
			if e.via != nil {
				hop += " via " + e.via.shortName()
			}
			hop += ")"
			hops = append(hops, hop)
		}
		prog.report(RuleLockOrder, witness.pos,
			"lock acquisition cycle: %s; impose one order (document it on the mutex fields) or split the critical sections",
			strings.Join(hops, ", "))
	}
}
