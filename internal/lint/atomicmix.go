package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkAtomicMix enforces all-or-nothing atomicity per variable,
// module-wide. Mixing sync/atomic operations with plain loads and
// stores on the same word is a data race the race detector only
// catches when the interleaving actually happens; statically, the
// rule is simple — once any access to a field or variable is atomic,
// every access must be:
//
//   - a raw word passed to sync/atomic functions (&x with
//     atomic.AddUint64 etc.) may appear only as such an argument;
//   - a variable of an atomic box type (atomic.Bool, atomic.Int64,
//     atomic.Value, atomic.Pointer[T]) may only be used as a method
//     receiver — copying the box or reaching into it defeats it.
//     Taking its address is allowed (that is how a box is passed),
//     and struct-embedding is not distinguishable from use, so only
//     value-copy contexts (assignment, composite literal value,
//     argument, return, comparison) are flagged.
func (prog *program) checkAtomicMix() {
	// Phase 1: find every object passed raw to a sync/atomic function.
	rawAtomics := make(map[types.Object]bool)
	for _, pkg := range prog.pkgs {
		p := prog.pass(pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkgPath, _ := p.calleePkg(call); pkgPath != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					if un, ok := arg.(*ast.UnaryExpr); ok && un.Op == token.AND {
						if obj := p.fieldOrVarObject(un.X); obj != nil {
							rawAtomics[obj] = true
						}
					}
				}
				return true
			})
		}
	}

	// Phase 2: audit every mention of a raw-atomic or atomic-typed
	// object against the legal contexts.
	for _, pkg := range prog.pkgs {
		p := prog.pass(pkg)
		for _, f := range pkg.Files {
			parents := parentMap(f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id] // Uses only: skip declarations
				if obj == nil {
					return true
				}
				// Only variables and fields are tracked: a mention of the
				// atomic *type name* (field declarations, conversions) is
				// not an access.
				if _, isVar := obj.(*types.Var); !isVar {
					return true
				}
				raw := rawAtomics[obj]
				boxed := !raw && namedType(obj.Type(), "sync/atomic")
				if !raw && !boxed {
					return true
				}
				// The mention is the widest selector ending at id.
				var m ast.Expr = id
				if sel, ok := parents[m].(*ast.SelectorExpr); ok && sel.Sel == id {
					m = sel
				}
				ctx := parents[m]
				for {
					if pe, ok := ctx.(*ast.ParenExpr); ok {
						ctx = parents[pe]
						continue
					}
					break
				}
				if raw {
					if !legalRawContext(p, parents, m, ctx) {
						prog.report(RuleAtomicMix, id.Pos(),
							"%s is accessed with sync/atomic elsewhere but read/written plainly here; every access must go through sync/atomic",
							p.ownerLabel(m, obj))
					}
				} else if !legalBoxContext(parents, m, ctx) {
					prog.report(RuleAtomicMix, id.Pos(),
						"atomic-typed %s used as a plain value; call its Load/Store/Add/CompareAndSwap methods instead",
						p.ownerLabel(m, obj))
				}
				return true
			})
		}
	}
}

// legalRawContext reports whether mention m (context ctx) is the
// &m-argument-to-sync/atomic pattern.
func legalRawContext(p *pass, parents map[ast.Node]ast.Node, m ast.Expr, ctx ast.Node) bool {
	un, ok := ctx.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	outer := parents[un]
	for {
		if pe, ok := outer.(*ast.ParenExpr); ok {
			outer = parents[pe]
			continue
		}
		break
	}
	call, ok := outer.(*ast.CallExpr)
	if !ok {
		return false
	}
	pkgPath, _ := p.calleePkg(call)
	return pkgPath == "sync/atomic"
}

// legalBoxContext reports whether mention m (context ctx) of an
// atomic box is a method-call receiver, an address-of, or a selector
// step on the way to one.
func legalBoxContext(parents map[ast.Node]ast.Node, m ast.Expr, ctx ast.Node) bool {
	switch c := ctx.(type) {
	case *ast.SelectorExpr:
		// m.Load(...), or a deeper selector chain step: legal as long as
		// the selector is being called. A selector that merely reads a
		// promoted field through the box would be caught at that field's
		// own mention.
		if c.X == m {
			outer := parents[c]
			for {
				if pe, ok := outer.(*ast.ParenExpr); ok {
					outer = parents[pe]
					continue
				}
				break
			}
			if call, ok := outer.(*ast.CallExpr); ok && call.Fun == c {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return c.Op == token.AND // passing the box by pointer
	}
	return false
}

// parentMap records each node's syntactic parent within one file.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
