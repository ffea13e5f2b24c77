package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkHotPath enforces the allocation-free contract of functions
// annotated //dpr:hotpath — the PR-1 pass pipeline's per-edge code,
// whose whole point is that warm passes allocate nothing.
//
// Flagged constructs:
//
//   - make / new calls
//   - map and slice composite literals
//   - function literals (closures allocate, and capturing loop state
//     by reference forces heap escapes)
//   - append whose base is nil or a fresh literal (growth with no
//     reusable capacity behind it)
//   - fmt.* calls (interface boxing of every operand)
//   - string concatenation and string<->[]byte conversions
//   - go statements (a goroutine per call is not a warm-path move)
//
// Appending into engine-owned, capacity-reused slices (out.held =
// append(out.held, d)) is the pipeline's designed idiom and stays
// legal: the guard targets constructs that allocate on every pass,
// not amortized growth into pooled scratch.
func (p *pass) checkHotPath() {
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !p.isHotPath(fd) {
				continue
			}
			p.allocSites(fd.Body, false, func(s allocSite) bool {
				p.report(RuleHotPath, s.pos, s.msg, fd.Name.Name)
				return true
			})
		}
	}
}

// isHotPath reports whether fn's doc comment carries //dpr:hotpath.
func (p *pass) isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if _, ok := cutDirective(c.Text, "dpr:hotpath"); ok {
			return true
		}
	}
	return false
}

// allocSite is one allocating construct in a function body: where it
// is, its short name (the transitive rule's fact) and the hotpath
// rule's message, whose %s is the hot function's name.
type allocSite struct {
	pos  token.Pos
	desc string
	msg  string
}

// allocSites yields every allocating construct in body, in source
// order, until yield returns false. This is the one construct list
// both hot-path rules enforce. A function literal is yielded and not
// entered. With skipPanic the arguments of a panic are skipped: what
// feeds a crash is not on the hot path.
func (p *pass) allocSites(body *ast.BlockStmt, skipPanic bool, yield func(allocSite) bool) {
	stopped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if stopped {
			return false
		}
		site, descend := p.allocAt(n, skipPanic)
		if site.desc != "" && !yield(site) {
			stopped = true
		}
		return descend && !stopped
	})
}

// allocAt classifies one node for allocSites: the site it is (desc ""
// when none) and whether the walk descends into it.
func (p *pass) allocAt(n ast.Node, skipPanic bool) (allocSite, bool) {
	switch n := n.(type) {
	case *ast.FuncLit:
		return allocSite{n.Pos(), "closure literal", "closure in hot-path function %s allocates"}, false
	case *ast.GoStmt:
		return allocSite{n.Pos(), "go statement", "go statement in hot-path function %s spawns per call"}, true
	case *ast.CompositeLit:
		if t := p.typeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				return allocSite{n.Pos(), "map literal", "map literal in hot-path function %s allocates"}, true
			case *types.Slice:
				return allocSite{n.Pos(), "slice literal", "slice literal in hot-path function %s allocates"}, true
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(p.typeOf(n)) {
			return allocSite{n.Pos(), "string concatenation", "string concatenation in hot-path function %s allocates"}, true
		}
	case *ast.CallExpr:
		return p.allocCall(n, skipPanic)
	}
	return allocSite{}, true
}

// allocCall classifies a call: the allocating builtins, fmt, and
// string/[]byte conversions.
func (p *pass) allocCall(call *ast.CallExpr, skipPanic bool) (allocSite, bool) {
	pos := call.Pos()
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := p.objectOf(id).(*types.Builtin); builtin {
			switch {
			case id.Name == "make":
				return allocSite{pos, "make", "make in hot-path function %s allocates"}, true
			case id.Name == "new":
				return allocSite{pos, "new", "new in hot-path function %s allocates"}, true
			case id.Name == "append" && len(call.Args) > 0 && isFreshBase(call.Args[0]):
				return allocSite{pos, "append to fresh slice",
					"append to a fresh slice in hot-path function %s grows without preallocated capacity"}, true
			}
			return allocSite{}, !(skipPanic && id.Name == "panic")
		}
	}
	if pkgPath, name := p.calleePkg(call); pkgPath == "fmt" {
		return allocSite{pos, "fmt." + name, "fmt call in hot-path function %s allocates and boxes"}, true
	}
	if tv, ok := p.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := p.typeOf(call.Fun), p.typeOf(call.Args[0])
		if (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from)) {
			return allocSite{pos, "string/[]byte conversion", "string/[]byte conversion in hot-path function %s copies"}, true
		}
	}
	return allocSite{}, true
}

// isFreshBase reports append bases with no capacity behind them: nil
// or a composite literal.
func isFreshBase(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// append(T(nil), ...) style conversions
		if len(e.Args) == 1 {
			return isFreshBase(e.Args[0])
		}
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
