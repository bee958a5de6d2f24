package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAllocRule keeps the marked hot loops of the assignment and
// update kernels allocation-free. The ROADMAP's blocked-kernel
// direction (communication-avoiding kernel k-means) assumes the inner
// per-sample loops run at memory speed: a heap allocation, a map
// lookup, or an interface boxing inside them turns a
// million-iteration kernel into a GC benchmark. The rule is opt-in —
// a loop participates only when its `for`/`range` line (or the line
// above) carries a `//swlint:hot` marker — so cold setup loops stay
// unconstrained and a marker documents the performance contract in
// source.
//
// Inside a marked loop (nested blocks and loops included) the rule
// flags:
//
//   - make/new and slice/map composite literals (and &T{...}),
//   - closures (a func literal allocates its environment),
//   - `append` to a slice with no capacity-bearing make() before the
//     loop — preallocated appends are blessed, and the mechanical fix
//     rewrites `var xs []T` into `xs := make([]T, 0, bound)` when the
//     loop bound is statically evident,
//   - map index writes, reads in assignments, and delete() — maps
//     hash and may allocate on insert,
//   - interface boxing: a concrete-typed argument passed to an
//     interface-typed parameter,
//   - calls to module-local functions whose summaries allocate, with
//     the call chain in the message.
//
// Deliberate allocations (error paths, once-per-convergence slow
// paths) carry a //swlint:ignore hot-path-alloc -- <reason> at the
// offending line.
type HotPathAllocRule struct {
	// Sums supplies the summaries behind the allocating-callee check.
	Sums *Summarizer
}

// ID implements Rule.
func (HotPathAllocRule) ID() string { return "hot-path-alloc" }

// Doc implements Rule.
func (HotPathAllocRule) Doc() string {
	return "loops marked //swlint:hot must not allocate: no make/new/closures, growing appends, map operations, or interface boxing"
}

// hotMarker is the loop opt-in comment.
const hotMarker = "swlint:hot"

// Check implements Rule.
func (r HotPathAllocRule) Check(p *Package) []Finding {
	hot := hotMarkerLines(p)
	if len(hot) == 0 {
		return nil
	}
	var out []Finding
	files := newFileSources(p)
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		fnScope := fn
		g := newFlowGraph(p, fn)
		ast.Inspect(fn.body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != fnScope.node {
				return false // literals are their own funcUnits
			}
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			pos := p.Fset.Position(n.Pos())
			lines := hot[pos.Filename]
			if lines == nil || !(lines[pos.Line] || lines[pos.Line-1]) {
				return true
			}
			out = append(out, r.checkHotLoop(p, g, files, fnScope, n.(ast.Stmt), body)...)
			return true // nested marked loops are found and checked too
		})
	}
	return out
}

// hotMarkerLines collects the //swlint:hot marker lines per file.
func hotMarkerLines(p *Package) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text != hotMarker && !strings.HasPrefix(text, hotMarker+" ") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]bool)
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}

// checkHotLoop walks one marked loop body and flags every allocation
// shape. Nested function literals are flagged as closure allocations
// and not descended into: their bodies execute under a different
// activation.
func (r HotPathAllocRule) checkHotLoop(p *Package, g *flowGraph, files *fileSources, fn funcUnit, loop ast.Stmt, body *ast.BlockStmt) []Finding {
	var out []Finding
	flagged := make(map[token.Pos]bool)
	flag := func(pos token.Pos, what, hint string) {
		if flagged[pos] {
			return // the write cases fire before Inspect reaches the index child
		}
		flagged[pos] = true
		out = append(out, Finding{
			RuleID:  r.ID(),
			Pos:     p.Fset.Position(pos),
			Message: what + " inside a //swlint:hot loop; " + hint,
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flag(n.Pos(), "closure allocation", "predeclare the function or hoist the closure out of the loop")
			return false
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					flag(n.Pos(), "composite-literal allocation", "hoist the literal out of the loop and reuse it")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					flag(n.Pos(), "heap allocation (&composite literal)", "hoist the value out of the loop and reuse it")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok && isMapValue(p, idx.X) {
					flag(idx.Pos(), "map write", "maps hash and may allocate on insert — use a dense slice keyed by index")
				}
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					continue
				}
				rhs := n.Rhs[min(i, len(n.Rhs)-1)]
				if v := appendTarget(p, lhs, rhs); v != nil && !r.preallocated(p, g, v, loop) {
					f := Finding{
						RuleID: r.ID(),
						Pos:    p.Fset.Position(rhs.Pos()),
						Message: "append to " + v.Name() + " may grow and reallocate inside a //swlint:hot loop; " +
							"preallocate the slice with make(..., 0, n) before the loop",
						Fix: r.preallocFix(p, files, fn, v, loop),
					}
					out = append(out, f)
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := n.X.(*ast.IndexExpr); ok && isMapValue(p, idx.X) {
				flag(idx.Pos(), "map write", "maps hash and may allocate on insert — use a dense slice keyed by index")
			}
		case *ast.IndexExpr:
			// Reads: map indexing hashes on every access.
			if isMapValue(p, n.X) {
				flag(n.Pos(), "map access", "maps hash on every access — use a dense slice keyed by index")
				return false
			}
		case *ast.CallExpr:
			switch builtinName(p, n) {
			case "make":
				flag(n.Pos(), "heap allocation (make)", "hoist the buffer out of the loop and reuse it")
				return true
			case "new":
				flag(n.Pos(), "heap allocation (new)", "hoist the value out of the loop and reuse it")
				return true
			case "append":
				return true // handled at the assignment
			case "delete":
				flag(n.Pos(), "map delete", "maps hash and may allocate — use a dense slice keyed by index")
				return true
			case "":
			default:
				return true
			}
			out = append(out, r.boxedArgs(p, n)...)
			if sum := r.Sums.ForCall(p, n); sum != nil && len(sum.Allocs) > 0 {
				a := sum.Allocs[0]
				msg := "call to " + sum.Name + " " + a.Detail
				if a.Chain != "" {
					msg += " (via " + a.Chain + ")"
				}
				msg += " inside a //swlint:hot loop; hoist the allocation or pass scratch buffers in"
				out = append(out, Finding{RuleID: r.ID(), Pos: p.Fset.Position(n.Pos()), Message: msg})
			}
		}
		return true
	})
	return out
}

// boxedArgs flags concrete-typed arguments passed to interface-typed
// parameters — each such call boxes the value on the heap.
func (r HotPathAllocRule) boxedArgs(p *Package, call *ast.CallExpr) []Finding {
	t := p.Info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []Finding
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through, no per-element boxing
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		out = append(out, Finding{
			RuleID: r.ID(),
			Pos:    p.Fset.Position(arg.Pos()),
			Message: "passing a concrete value to an interface parameter boxes it on the heap " +
				"inside a //swlint:hot loop; use a concrete-typed helper or hoist the call",
		})
	}
	return out
}

// preallocated reports whether the slice variable's sources include a
// capacity-bearing make() positioned before the loop.
func (r HotPathAllocRule) preallocated(p *Package, g *flowGraph, v *types.Var, loop ast.Stmt) bool {
	for _, src := range g.sources[v] {
		call, ok := src.(*ast.CallExpr)
		if !ok {
			continue
		}
		if builtinName(p, call) == "make" && len(call.Args) >= 3 && call.Pos() < loop.Pos() {
			return true
		}
	}
	return false
}

// preallocFix builds the mechanical preallocation hint: when the
// un-preallocated append target is declared `var xs []T` before the
// loop and the loop bound is statically evident (`for i := 0; i < n;
// i++` with pure n, or `range X` with pure X), rewrite the declaration
// into `xs := make([]T, 0, bound)`. Returns nil when any piece is not
// mechanical; the finding stays manual.
func (r HotPathAllocRule) preallocFix(p *Package, files *fileSources, fn funcUnit, v *types.Var, loop ast.Stmt) *Fix {
	bound := loopBoundText(p, files, loop)
	if bound == "" {
		return nil
	}
	spec, decl := sliceVarDecl(p, fn, v, loop)
	if spec == nil {
		return nil
	}
	fset := p.Fset
	src, err := files.source(fset.Position(decl.Pos()).Filename)
	if err != nil {
		return nil
	}
	start := fset.Position(decl.Pos()).Offset
	end := fset.Position(decl.End()).Offset
	tstart := fset.Position(spec.Type.Pos()).Offset
	tend := fset.Position(spec.Type.End()).Offset
	if end > len(src) || tend > len(src) {
		return nil
	}
	typeText := string(src[tstart:tend])
	return &Fix{
		Message: "preallocate " + v.Name() + " with the loop bound as capacity",
		Edits: []TextEdit{{
			Filename: fset.Position(decl.Pos()).Filename,
			Start:    start,
			End:      end,
			NewText:  v.Name() + " := make(" + typeText + ", 0, " + bound + ")",
		}},
	}
}

// loopBoundText renders the loop's static iteration bound as source
// text, or "" when the bound is not mechanical.
func loopBoundText(p *Package, files *fileSources, loop ast.Stmt) string {
	exprText := func(e ast.Expr) string {
		pos := p.Fset.Position(e.Pos())
		end := p.Fset.Position(e.End())
		src, err := files.source(pos.Filename)
		if err != nil || end.Offset > len(src) {
			return ""
		}
		return string(src[pos.Offset:end.Offset])
	}
	switch loop := loop.(type) {
	case *ast.RangeStmt:
		if !pureExpr(loop.X) {
			return ""
		}
		t := p.Info.TypeOf(loop.X)
		if t == nil {
			return ""
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Array:
			if text := exprText(loop.X); text != "" {
				return "len(" + text + ")"
			}
		}
	case *ast.ForStmt:
		// `for i := 0; i < n; i++` with pure n.
		init, ok := loop.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return ""
		}
		iv, ok := init.Lhs[0].(*ast.Ident)
		if !ok {
			return ""
		}
		if lit, ok := init.Rhs[0].(*ast.BasicLit); !ok || lit.Value != "0" {
			return ""
		}
		cond, ok := loop.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.LSS || !pureExpr(cond.Y) {
			return ""
		}
		cid, ok := cond.X.(*ast.Ident)
		if !ok || p.Info.Uses[cid] != p.Info.Defs[iv] {
			return ""
		}
		return exprText(cond.Y)
	}
	return ""
}

// sliceVarDecl finds the `var xs []T` declaration statement of v inside
// the function, positioned before the loop, with no initializer.
func sliceVarDecl(p *Package, fn funcUnit, v *types.Var, loop ast.Stmt) (*ast.ValueSpec, *ast.GenDecl) {
	var spec *ast.ValueSpec
	var decl *ast.GenDecl
	ast.Inspect(fn.node, func(n ast.Node) bool {
		if spec != nil {
			return false
		}
		ds, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := ds.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR || len(gd.Specs) != 1 || gd.Pos() >= loop.Pos() {
			return true
		}
		vs, ok := gd.Specs[0].(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 0 || vs.Type == nil {
			return true
		}
		if p.Info.Defs[vs.Names[0]] != v {
			return true
		}
		if _, ok := vs.Type.(*ast.ArrayType); !ok {
			return true
		}
		spec, decl = vs, gd
		return false
	})
	return spec, decl
}
