package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the package's lightweight dataflow engine: a
// function-level, intraprocedural value-flow pass over the typed AST
// that the semantic rules (map-order, collective-match,
// goroutine-purity) share. The model is deliberately simple and its
// limits are documented in docs/STATIC_ANALYSIS.md:
//
//   - flow is tracked per local variable within one function (params
//     and range/assign definitions), with no alias analysis — a value
//     stored through a pointer or into a container loses its origin;
//   - ordering questions ("is this slice sorted after the loop?") are
//     answered positionally within the function body, not over a real
//     control-flow graph;
//   - calls are opaque: a helper's effects are not propagated into its
//     callers (each function is analyzed against its own body only).
//
// Those limits trade missed corner cases for zero false dataflow: what
// the pass does report derives from definitions it actually saw.

// funcUnit is one analyzable function: a declaration or a function
// literal, with its body and (for declarations) its doc comment.
type funcUnit struct {
	node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt // nil for bodiless declarations
	doc  *ast.CommentGroup
}

// packageFuncs enumerates every function declaration and function
// literal of the package, innermost literals included.
func packageFuncs(p *Package) []funcUnit {
	var out []funcUnit
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				out = append(out, funcUnit{node: n, body: n.Body, doc: n.Doc})
			case *ast.FuncLit:
				out = append(out, funcUnit{node: n, body: n.Body})
			}
			return true
		})
	}
	return out
}

// flowGraph is the intraprocedural value flow of one function: for
// every local variable, the expressions whose values reach it through
// definitions and assignments anywhere in the function.
type flowGraph struct {
	p       *Package
	sources map[*types.Var][]ast.Expr
}

// newFlowGraph builds the value flow of fn's body.
func newFlowGraph(p *Package, fn funcUnit) *flowGraph {
	g := &flowGraph{p: p, sources: make(map[*types.Var][]ast.Expr)}
	if fn.body == nil {
		return g
	}
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// a, b = x, y pairs positionally; a, b = f() flows the call
			// into every destination.
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := g.localVar(id)
				if v == nil {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					g.sources[v] = append(g.sources[v], n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					g.sources[v] = append(g.sources[v], n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v := g.localVar(name)
				if v == nil {
					continue
				}
				if len(n.Values) == len(n.Names) {
					g.sources[v] = append(g.sources[v], n.Values[i])
				} else if len(n.Values) == 1 {
					g.sources[v] = append(g.sources[v], n.Values[0])
				}
			}
		case *ast.RangeStmt:
			// Key and value flow from the ranged expression.
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if v := g.localVar(id); v != nil {
						g.sources[v] = append(g.sources[v], n.X)
					}
				}
			}
		}
		return true
	})
	return g
}

// localVar resolves an identifier to the variable it defines or uses.
func (g *flowGraph) localVar(id *ast.Ident) *types.Var {
	if v, ok := g.p.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := g.p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// derivesFrom reports whether expr's value derives — directly or
// through local assignments — from a source expression satisfying
// pred. Flow through opaque calls, fields and containers is not
// followed; builtins and conversions pass their operands through.
func (g *flowGraph) derivesFrom(expr ast.Expr, pred func(ast.Expr) bool) bool {
	return g.derives(expr, pred, nil, make(map[*types.Var]bool))
}

// derivesVia is derivesFrom with a call oracle: for each resolvable
// call the oracle reports whether the result is itself a source (a
// callee whose summary returns tainted values) and which argument
// indices flow through to the result, letting taint cross function
// boundaries. A nil oracle, derivesFrom's, keeps every call opaque.
func (g *flowGraph) derivesVia(expr ast.Expr, pred func(ast.Expr) bool, oracle func(*ast.CallExpr) (bool, []int)) bool {
	return g.derives(expr, pred, oracle, make(map[*types.Var]bool))
}

func (g *flowGraph) derives(expr ast.Expr, pred func(ast.Expr) bool, oracle func(*ast.CallExpr) (bool, []int), seen map[*types.Var]bool) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && pred(e) {
			found = true
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			// Builtins (make/append/len/cap/min/max) and type
			// conversions pass their operands' values through; other
			// calls are opaque unless the oracle knows the callee: a
			// result does not carry its receiver's or arguments' taint
			// (`err := comm.Barrier()` is not rank-dependent just
			// because comm came from a Split keyed by rank). A call
			// that is itself a source matched pred above.
			if g.passThroughCall(call) {
				return true
			}
			if oracle != nil {
				src, args := oracle(call)
				if src {
					found = true
					return false
				}
				for _, i := range args {
					if i >= 0 && i < len(call.Args) && g.derives(call.Args[i], pred, oracle, seen) {
						found = true
						return false
					}
				}
			}
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := g.p.Info.Uses[id].(*types.Var)
		if !ok || seen[v] {
			return true
		}
		seen[v] = true
		for _, src := range g.sources[v] {
			if g.derives(src, pred, oracle, seen) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// passThroughCall reports whether a call propagates its operands'
// values rather than computing an opaque result: the value-shaping
// builtins and type conversions (`float64(rank)` carries rank's
// taint).
func (g *flowGraph) passThroughCall(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, ok := g.p.Info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make", "append", "len", "cap", "min", "max":
				return true
			}
			return false
		}
	}
	if tv, ok := g.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// totalSortFuncs are the sort calls that impose a total order on a
// slice of ordered elements by construction. sort.Slice and
// sort.SliceStable are deliberately absent: whether their comparator
// is a total order is not statically checkable, and an unstable sort
// under a partial comparator is exactly the nondeterminism the
// map-order rule exists to prevent.
var totalSortFuncs = map[string]map[string]bool{
	"sort":   {"Ints": true, "Strings": true, "Float64s": true},
	"slices": {"Sort": true},
}

// The positional sortedTotallyAfter check lived here through v3; the
// CFG layer's sortedOnAllPaths (cfg.go) replaced it, turning "a sort
// appears later in the source" into "every path to the function exit
// passes a sort".

// rankSourceNames are the method names whose results identify the
// calling rank (or its role) on a communicator-like receiver.
var rankSourceNames = map[string]bool{
	"Rank":   true,
	"Global": true,
	"IsRoot": true,
	"CG":     true,
}

// isRankSource reports whether e is a direct rank origin: a call to a
// Rank/Global/IsRoot/CG method, or a use of a variable literally named
// "rank" (the convention for rank parameters threaded through
// helpers).
func isRankSource(p *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return false
		}
		return rankSourceNames[fn.Name()]
	case *ast.Ident:
		if !strings.EqualFold(e.Name, "rank") {
			return false
		}
		_, isVar := p.Info.Uses[e].(*types.Var)
		return isVar
	}
	return false
}

// rankDependent reports whether cond's value depends on the calling
// rank: it mentions a rank source directly, or a local variable whose
// value flows from one (covering `pos := c.Rank() % m; if pos == 0`).
// The oracle extends the flow through calls to helpers whose
// summaries return rank-derived values.
func rankDependent(p *Package, g *flowGraph, cond ast.Expr, oracle func(*ast.CallExpr) (bool, []int)) bool {
	return g.derivesVia(cond, func(e ast.Expr) bool { return isRankSource(p, e) }, oracle)
}

// declaredWithin reports whether the variable's declaration position
// falls inside the given node's source span — the positional stand-in
// for scope analysis.
func declaredWithin(v *types.Var, n ast.Node) bool {
	return v.Pos() >= n.Pos() && v.Pos() < n.End()
}

// guardedFields returns the set of struct fields carrying a
// "guarded by <mu>" annotation, shared with the guarded-field rule:
// writes to them from goroutines follow a documented mutex protocol
// and count as deterministic reduces for goroutine-purity.
func guardedFields(p *Package) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for v := range collectGuardedFields(p) {
		out[v] = true
	}
	return out
}

// receiverNamed reports whether the method call's receiver type (after
// pointer indirection) is the named type pkgPath.typeName.
func receiverNamed(p *Package, call *ast.CallExpr, pkgPath, typeName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}
