package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// checkLockHold flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives
// (except non-blocking selects with a default case), net.Conn I/O,
// time.Sleep, WaitGroup.Wait and Cond.Wait, and dialing. Holding a
// lock across any of these lets one slow peer wedge every goroutine
// that touches the same mutex — the failure mode PR 2's wire layer
// was built to rule out.
//
// The analysis is lexical and per function: a critical section is
// the source range between `x.Lock()` and the first later
// `x.Unlock()` on the same expression in the same function scope
// (through the end of the function for `defer x.Unlock()`). Nested
// function literals are separate scopes — a goroutine body does not
// hold its spawner's lock. Interprocedural holds (a helper called
// with the lock held) are out of scope; the rule exists to keep
// critical sections short and obvious, and a helper that blocks is
// caught when it takes the same lock or does its own I/O.
func (p *pass) checkLockHold() {
	conn := p.netConnType()
	for _, scope := range p.funcScopes() {
		p.checkScopeLocks(scope, conn)
	}
}

// lockRegion is one critical section of a function scope: the source
// interval between a Lock and its Unlock, with the mutex rendered
// ("p.mu"), as an object (nil when the receiver is no field or
// variable) and as its lock-graph label.
type lockRegion struct {
	key        string
	obj        types.Object
	label      string
	start, end token.Pos
}

// lockRegions collects the critical sections of one function scope
// from its Lock/Unlock pairs in source order. An Unlock closes the
// latest open section of the same mutex; a deferred Unlock, and a Lock
// never released, hold to the end of the scope. lockhold matches a
// mutex by its rendering; lockorder, with byObj, by its object, and
// then a receiver with no object opens no section.
func (p *pass) lockRegions(scope funcScope, byObj bool) []lockRegion {
	var open, regions []lockRegion
	end := scope.body.End()
	unlock := func(call *ast.CallExpr, upto token.Pos) {
		u, ok := p.mutexCallX(call, "Unlock", "RUnlock")
		if !ok {
			return
		}
		for i := len(open) - 1; i >= 0; i-- {
			if byObj && open[i].obj == u.obj || !byObj && open[i].key == u.key {
				open[i].end = upto
				regions = append(regions, open[i])
				open = append(open[:i], open[i+1:]...)
				return
			}
		}
	}
	walkScope(scope.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			unlock(n.Call, end)
			return false // a deferred call body runs at return, not here
		case *ast.CallExpr:
			if r, ok := p.mutexCallX(n, "Lock", "RLock"); ok {
				if r.obj != nil || !byObj {
					r.start = n.End()
					open = append(open, r)
				}
			} else {
				unlock(n, n.Pos())
			}
		}
		return true
	})
	// Locks never released in this scope hold to the end of it.
	for _, r := range open {
		r.end = end
		regions = append(regions, r)
	}
	return regions
}

// held returns the regions that contain pos, in region order.
func held(regions []lockRegion, pos token.Pos) []lockRegion {
	var hs []lockRegion
	for _, r := range regions {
		if pos > r.start && pos < r.end {
			hs = append(hs, r)
		}
	}
	return hs
}

func (p *pass) checkScopeLocks(scope funcScope, conn *types.Interface) {
	regions := p.lockRegions(scope, false)
	if len(regions) == 0 {
		return
	}
	// Flag blocking operations inside any critical section, naming the
	// first section that holds them.
	walkScope(scope.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return false // non-blocking by construction
			}
		case *ast.SendStmt:
			if hs := held(regions, n.Pos()); len(hs) > 0 {
				p.report(RuleLockHold, n.Pos(), "channel send while holding %s", hs[0].key)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if hs := held(regions, n.Pos()); len(hs) > 0 {
					p.report(RuleLockHold, n.Pos(), "channel receive while holding %s", hs[0].key)
				}
			}
		case *ast.CallExpr:
			if hs := held(regions, n.Pos()); len(hs) > 0 {
				if what := p.blockingCall(n, conn); what != "" {
					p.report(RuleLockHold, n.Pos(), "%s while holding %s", what, hs[0].key)
				}
			}
		}
		return true
	})
}

// mutexCallX matches a call `X.name()` where X is a sync.Mutex or
// sync.RWMutex (possibly behind a pointer) and name is one of names.
// It returns X as a region's mutex, with no interval yet.
func (p *pass) mutexCallX(call *ast.CallExpr, names ...string) (lockRegion, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, sel.Sel.Name) || !namedType(p.typeOf(sel.X), "sync", "Mutex", "RWMutex") {
		return lockRegion{}, false
	}
	r := lockRegion{key: types.ExprString(sel.X), obj: p.fieldOrVarObject(sel.X)}
	if r.obj != nil {
		r.label = lockLabel(p, sel.X, r.obj)
	}
	return r, true
}

// blockingCall describes why a call blocks ("" when it does not).
func (p *pass) blockingCall(call *ast.CallExpr, conn *types.Interface) string {
	if p.isPkgFunc(call, "time", "Sleep") {
		return "time.Sleep"
	}
	pkgPath, name := p.calleePkg(call)
	if pkgPath == "sync" && name == "Wait" {
		return "sync Wait"
	}
	if pkgPath == "net" && (name == "Dial" || name == "DialTimeout" || name == "DialTCP" || name == "DialUDP") {
		return "net dial"
	}
	if pkgPath == "net/http" {
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "HTTP round-trip"
		}
	}
	if conn != nil {
		for _, op := range p.connOps(call, conn) {
			switch op.kind {
			case opRead:
				return "net.Conn read"
			case opWrite:
				return "net.Conn write"
			}
		}
	}
	return ""
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
