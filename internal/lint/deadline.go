package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkDeadlines enforces the wire-deadline discipline: every
// net.Conn read or write in a deadline-scoped package must share a
// function with a SetReadDeadline/SetWriteDeadline/SetDeadline call
// (the repo's idiom arms the deadline immediately around the I/O), or
// carry a //dpr:nodeadline annotation explaining why the connection's
// lifetime is bounded some other way.
//
// A "read" is a .Read call on a net.Conn-typed expression or a
// net.Conn passed into a parameter whose interface has a Read method
// (io.Reader — this is how readFrame/writeFrame consume conns); a
// "write" is the mirror image. Reads are satisfied by SetReadDeadline
// or SetDeadline, writes by SetWriteDeadline or SetDeadline. The
// same-function approximation of dominance is deliberate: the wire
// package arms deadlines beside its I/O, and a deadline armed in a
// different function is exactly the hard-to-audit pattern this rule
// exists to surface.
func (p *pass) checkDeadlines() {
	conn := p.netConnType()
	if conn == nil {
		return
	}
	for _, scope := range p.funcScopes() {
		if scope.lit != nil {
			continue // literals are audited as part of their declaring function
		}
		fn := scope.decl
		var reads, writes []connOp
		var armedRead, armedWrite bool
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, op := range p.connOps(call, conn) {
				switch op.kind {
				case opRead:
					reads = append(reads, op)
				case opWrite:
					writes = append(writes, op)
				case opArmRead:
					armedRead = true
				case opArmWrite:
					armedWrite = true
				case opArmBoth:
					armedRead, armedWrite = true, true
				}
			}
			return true
		})
		for _, op := range reads {
			if armedRead {
				continue
			}
			if p.hasNoDeadline(p.prog.loader.Fset.Position(op.pos), fn) {
				continue
			}
			p.report(RuleWireDeadline, op.pos,
				"net.Conn read in %s without SetReadDeadline in the same function (annotate //dpr:nodeadline <reason> if the conn's lifetime is bounded elsewhere)",
				fn.Name.Name)
		}
		for _, op := range writes {
			if armedWrite {
				continue
			}
			if p.hasNoDeadline(p.prog.loader.Fset.Position(op.pos), fn) {
				continue
			}
			p.report(RuleWireDeadline, op.pos,
				"net.Conn write in %s without SetWriteDeadline in the same function (annotate //dpr:nodeadline <reason> if the conn's lifetime is bounded elsewhere)",
				fn.Name.Name)
		}
	}
}

type connOpKind int

const (
	opRead connOpKind = iota
	opWrite
	opArmRead
	opArmWrite
	opArmBoth
)

type connOp struct {
	kind connOpKind
	pos  token.Pos
}

// netConnType resolves the net.Conn interface from the loader's
// standard-library importer (nil if unavailable).
func (p *pass) netConnType() *types.Interface {
	netPkg, err := p.prog.loader.StdImport("net")
	if err != nil {
		return nil
	}
	obj := netPkg.Scope().Lookup("Conn")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// implementsConn reports whether t satisfies net.Conn. The invalid
// type (e.g. a package-name identifier in a qualified call like
// binary.Write) must be rejected explicitly: a pointer to it
// vacuously satisfies every interface.
func implementsConn(t types.Type, conn *types.Interface) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.Invalid {
		return false
	}
	return types.Implements(t, conn) || types.Implements(types.NewPointer(t), conn)
}

// connOps classifies one call expression's connection operations:
// direct Read/Write/deadline methods on a conn-typed receiver, plus
// conn-typed arguments flowing into Reader/Writer parameters.
func (p *pass) connOps(call *ast.CallExpr, conn *types.Interface) []connOp {
	var ops []connOp
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && implementsConn(p.typeOf(sel.X), conn) {
		switch sel.Sel.Name {
		case "Read":
			ops = append(ops, connOp{opRead, call.Pos()})
		case "Write":
			ops = append(ops, connOp{opWrite, call.Pos()})
		case "SetReadDeadline":
			ops = append(ops, connOp{opArmRead, call.Pos()})
		case "SetWriteDeadline":
			ops = append(ops, connOp{opArmWrite, call.Pos()})
		case "SetDeadline":
			ops = append(ops, connOp{opArmBoth, call.Pos()})
		}
	}
	sig, _ := p.typeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return ops
	}
	for i, arg := range call.Args {
		if !implementsConn(p.typeOf(arg), conn) {
			continue
		}
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				param = s.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		iface, ok := param.(*types.Interface)
		if !ok {
			if named, isNamed := param.(*types.Named); isNamed {
				iface, ok = named.Underlying().(*types.Interface)
			}
			if !ok {
				continue
			}
		}
		// A conn-shaped parameter (it can arm its own deadlines) means
		// the conn is being handed over, not read or written here; the
		// callee's own body is subject to this rule instead.
		if ifaceHasMethod(iface, "SetDeadline") || ifaceHasMethod(iface, "SetReadDeadline") {
			continue
		}
		if ifaceHasMethod(iface, "Read") {
			ops = append(ops, connOp{opRead, arg.Pos()})
		}
		if ifaceHasMethod(iface, "Write") {
			ops = append(ops, connOp{opWrite, arg.Pos()})
		}
	}
	return ops
}

func ifaceHasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
