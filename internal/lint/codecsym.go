package lint

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkCodecSym enforces encoder/decoder symmetry in the codec
// packages (internal/wire, internal/p2p). A wire format is an implicit
// contract with every deployed peer; the rule makes its obligations
// explicit:
//
//   - every encodeX/EncodeX function has a matching decodeX/DecodeX
//     in the same package — an encoder without a decoder is a frame
//     nobody can ever parse back — and no two codecs share a suffix X;
//   - every decoder whose input is a byte slice checks len() of it —
//     frames arrive from the network, and PR 2's fuzz targets exist
//     precisely because unchecked offsets panic on truncated input;
//   - every paired decoder is exercised by some Fuzz* target in the
//     package's tests, and that target also calls the matching
//     encoder (round-trip evidence, not just crash-freedom), and
//     seeds its corpus with at least one f.Add;
//   - every frameX constant is referenced outside its declaration —
//     a dead frame byte is either an unfinished feature or a decoder
//     that silently drops a frame kind;
//   - the checkpoint version pair (xSnapVersion / xSnapMinVersion)
//     spans a compatibility window, and some decoder mentions every
//     version inside it — dropping the v3 decode path would strand
//     any peer restoring an old snapshot.
func (p *pass) checkCodecSym() {
	encoders := make(map[string]*ast.FuncDecl) // suffix -> decl
	decoders := make(map[string]*ast.FuncDecl)
	var funcs []*ast.FuncDecl
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil {
				continue
			}
			funcs = append(funcs, fd)
			side := encoders
			s, ok := codecSuffix(fd.Name.Name, "encode", "Encode")
			if !ok {
				side = decoders
				s, ok = codecSuffix(fd.Name.Name, "decode", "Decode")
			}
			if first := side[s]; ok && first != nil {
				// Pairs are keyed by suffix: a second codec of the same one
				// would silently go unchecked.
				p.report(RuleCodecSym, fd.Name.Pos(),
					"%s repeats the codec suffix %q of %s; rename one, or only one of them is checked", fd.Name.Name, s, first.Name.Name)
			} else if ok {
				side[s] = fd
			}
		}
	}

	fuzzers := p.loadFuzzTargets()

	var suffixes []string
	for s := range encoders {
		suffixes = append(suffixes, s)
	}
	sort.Strings(suffixes)
	for _, s := range suffixes {
		enc := encoders[s]
		dec, ok := decoders[s]
		if !ok {
			p.report(RuleCodecSym, enc.Name.Pos(),
				"encoder %s has no matching decoder (decode%s/Decode%s) in this package", enc.Name.Name, s, s)
			continue
		}
		p.checkDecoderBounds(dec)
		p.checkFuzzCoverage(s, enc, dec, fuzzers)
	}

	// Fuzz targets without seeds give the mutator nothing to start
	// from; every target must plant at least one corpus entry.
	for _, fz := range fuzzers {
		if !fz.hasAdd {
			p.report(RuleCodecSym, fz.decl.Name.Pos(),
				"fuzz target %s has no seed corpus (no f.Add call); seed every frame kind it decodes", fz.decl.Name.Name)
		}
	}

	p.checkFrameConsts()
	p.checkVersionWindow(funcs)
}

// codecSuffix matches name against the given prefixes and returns the
// codec suffix ("Batch" from "encodeBatch").
func codecSuffix(name string, prefixes ...string) (string, bool) {
	for _, pre := range prefixes {
		if rest, ok := strings.CutPrefix(name, pre); ok && rest != "" {
			return rest, true
		}
	}
	return "", false
}

// checkDecoderBounds requires a byte-slice decoder to consult len()
// of its input somewhere.
func (p *pass) checkDecoderBounds(dec *ast.FuncDecl) {
	params := dec.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return
	}
	first := params.List[0].Names[0]
	obj := p.pkg.Info.Defs[first]
	if obj == nil || !isByteSliceType(obj.Type()) {
		return
	}
	found := false
	ast.Inspect(dec.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "len" || len(call.Args) != 1 {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && p.pkg.Info.Uses[arg] == obj {
			found = true
		}
		return !found
	})
	if !found {
		p.report(RuleCodecSym, dec.Name.Pos(),
			"decoder %s never checks len(%s); network input must be bounds-checked before indexing", dec.Name.Name, first.Name)
	}
}

// fuzzTarget is one Fuzz* function found in the package's tests.
type fuzzTarget struct {
	decl   *ast.FuncDecl
	calls  map[string]bool // function names invoked anywhere inside
	hasAdd bool            // at least one f.Add seed
}

// loadFuzzTargets parses the package directory's _test.go files
// (tests are not part of the loaded package) and indexes its fuzz
// functions. Parse failures are ignored here — the tests' own build
// will report them.
func (p *pass) loadFuzzTargets() []*fuzzTarget {
	entries, err := os.ReadDir(p.pkg.Dir)
	if err != nil {
		return nil
	}
	var targets []*fuzzTarget
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.prog.loader.Fset, filepath.Join(p.pkg.Dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			fz := &fuzzTarget{decl: fd, calls: make(map[string]bool)}
			fParam := ""
			if ps := fd.Type.Params; ps != nil && len(ps.List) == 1 && len(ps.List[0].Names) == 1 {
				fParam = ps.List[0].Names[0].Name
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					fz.calls[fun.Name] = true
				case *ast.SelectorExpr:
					fz.calls[fun.Sel.Name] = true
					if x, ok := fun.X.(*ast.Ident); ok && x.Name == fParam && fun.Sel.Name == "Add" {
						fz.hasAdd = true
					}
				}
				return true
			})
			targets = append(targets, fz)
		}
	}
	return targets
}

// checkFuzzCoverage requires some fuzz target to call the decoder,
// and the encoder alongside it for round-trip checking.
func (p *pass) checkFuzzCoverage(suffix string, enc, dec *ast.FuncDecl, fuzzers []*fuzzTarget) {
	covered, roundTrip := false, false
	for _, fz := range fuzzers {
		if fz.calls[dec.Name.Name] {
			covered = true
			if fz.calls[enc.Name.Name] {
				roundTrip = true
			}
		}
	}
	if !covered {
		p.report(RuleCodecSym, dec.Name.Pos(),
			"decoder %s is not exercised by any Fuzz* target in this package's tests; add a seed clause for it", dec.Name.Name)
		return
	}
	if !roundTrip {
		p.report(RuleCodecSym, dec.Name.Pos(),
			"fuzz coverage of %s never re-encodes with %s; decode-only fuzzing proves crash-freedom, not symmetry", dec.Name.Name, enc.Name.Name)
	}
}

// checkFrameConsts flags frame-kind constants never referenced
// outside their declaration.
func (p *pass) checkFrameConsts() {
	type frameConst struct {
		obj  types.Object
		decl *ast.Ident
	}
	var consts []frameConst
	for id, obj := range p.pkg.Info.Defs {
		c, ok := obj.(*types.Const)
		if !ok || !strings.HasPrefix(c.Name(), "frame") {
			continue
		}
		if c.Val().Kind() != constant.Int {
			continue
		}
		consts = append(consts, frameConst{obj: obj, decl: id})
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].decl.Pos() < consts[j].decl.Pos() })
	used := make(map[types.Object]bool)
	for _, obj := range p.pkg.Info.Uses {
		used[obj] = true
	}
	for _, fc := range consts {
		if !used[fc.obj] {
			p.report(RuleCodecSym, fc.decl.Pos(),
				"frame constant %s is never used; either a decoder silently drops this frame kind or the constant is dead", fc.obj.Name())
		}
	}
}

// checkVersionWindow verifies snapshot-version compatibility: the
// current-version constant has a floor companion, and every version
// in [floor, current] appears in some comparison against a version
// variable — i.e. a decode path still exists for it.
func (p *pass) checkVersionWindow(funcs []*ast.FuncDecl) {
	var cur, min *types.Const
	var curIdent *ast.Ident
	for id, obj := range p.pkg.Info.Defs {
		c, ok := obj.(*types.Const)
		if !ok {
			continue
		}
		switch {
		case strings.HasSuffix(c.Name(), "SnapMinVersion"):
			min = c
		case strings.HasSuffix(c.Name(), "SnapVersion"):
			cur = c
			curIdent = id
		}
	}
	if cur == nil {
		return // package has no versioned snapshot format
	}
	if min == nil {
		p.report(RuleCodecSym, curIdent.Pos(),
			"%s has no compatibility floor; declare %sMinVersion and gate acceptance on the [floor, current] window",
			cur.Name(), strings.TrimSuffix(cur.Name(), "Version"))
		return
	}
	curV, okC := constant.Int64Val(constant.ToInt(cur.Val()))
	minV, okM := constant.Int64Val(constant.ToInt(min.Val()))
	if !okC || !okM || minV > curV {
		p.report(RuleCodecSym, curIdent.Pos(),
			"snapshot version window [%s=%v, %s=%v] is empty or malformed", min.Name(), min.Val(), cur.Name(), cur.Val())
		return
	}

	// A "version mention" is a comparison between a version-named
	// non-constant operand and a constant operand; the constant's value
	// marks that version as handled somewhere.
	mentioned := make(map[int64]bool)
	for _, fd := range funcs {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || !isComparisonOp(be.Op) {
				return true
			}
			for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
				varSide, constSide := pair[0], pair[1]
				if !isVersionNamed(varSide) {
					continue
				}
				tv, ok := p.pkg.Info.Types[constSide]
				if !ok || tv.Value == nil {
					continue
				}
				if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
					mentioned[v] = true
				}
			}
			return true
		})
	}
	for v := minV; v <= curV; v++ {
		if !mentioned[v] {
			p.report(RuleCodecSym, curIdent.Pos(),
				"no decode path mentions snapshot version %d (window [%d, %d]); peers restoring v%d snapshots would be stranded",
				v, minV, curV, v)
		}
	}
}

func isComparisonOp(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// isVersionNamed reports whether an expression is an identifier or
// selector whose name suggests a decoded version value.
func isVersionNamed(e ast.Expr) bool {
	name := ""
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "version") || lower == "ver" || lower == "v"
}

func isByteSliceType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
