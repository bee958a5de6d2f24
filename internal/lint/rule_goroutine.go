package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutinePurityRule polices concurrency inside the simulation
// packages. The simulated machine is deliberately concurrent — one
// goroutine per rank, one per CPE — and stays deterministic only
// because every fan-in is order-insensitive: goroutines scatter into
// disjoint indexes, reduce through the mutex-guarded accumulator types
// ("guarded by" fields), or signal completion with empty-struct
// tokens. This rule flags the concurrency constructs whose result
// depends on scheduling order:
//
//   - a `go` statement whose body writes shared state that is not a
//     deterministic scatter (an indexed write), a guarded field, or an
//     empty-struct completion token;
//   - every `select` statement: when more than one case is ready the
//     runtime chooses pseudo-randomly, so a select is deterministic
//     only under a protocol argument the analysis cannot check — state
//     it in a //swlint:ignore goroutine-purity -- <reason>;
//   - buffered-channel fan-in: a received value appended to a slice
//     that no total-order sort fixes up afterwards (the sorted-merge
//     exemption, shared with map-order).
//
// sync.WaitGroup is not flagged by itself: a pure barrier is
// deterministic; what matters is what the goroutines it waits for
// wrote, which the `go` analysis covers.
type GoroutinePurityRule struct {
	// SimPackages scopes the rule, like no-wallclock.
	SimPackages []string
	// Sums lifts the calls-are-trusted limit: a `go` statement
	// spawning a named function — or a call made from inside a
	// goroutine literal — whose summary writes package-level variables
	// is flagged at the call site with the call chain.
	Sums *Summarizer
}

// ID implements Rule.
func (GoroutinePurityRule) ID() string { return "goroutine-purity" }

// Doc implements Rule.
func (GoroutinePurityRule) Doc() string {
	return "concurrency in simulation packages must fan in order-insensitively (scatter, guarded reduce, or sorted merge)"
}

// Check implements Rule.
func (r GoroutinePurityRule) Check(p *Package) []Finding {
	if !hasSuffixPath(p.Path, r.SimPackages) {
		return nil
	}
	guarded := guardedFields(p)
	var out []Finding
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		g := newFlowGraph(p, fn)
		fnScope := fn
		var cg *cfgGraph // built on first fan-in site
		cfgOf := func() *cfgGraph {
			if cg == nil {
				cg = buildCFG(p, fnScope)
			}
			return cg
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != fnScope.node {
				return false
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				out = append(out, r.checkGo(p, guarded, n)...)
			case *ast.SelectStmt:
				out = append(out, Finding{
					RuleID: r.ID(),
					Pos:    p.Fset.Position(n.Select),
					Message: "select chooses pseudo-randomly among ready cases; if a protocol argument makes " +
						"this deterministic, state it in a //swlint:ignore goroutine-purity -- <reason>",
				})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					out = append(out, r.checkFanIn(p, g, fnScope, cfgOf(), n)...)
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						out = append(out, r.checkRangeFanIn(p, fnScope, cfgOf(), n)...)
					}
				}
			}
			return true
		})
	}
	return out
}

// checkGo verifies that a goroutine's externally visible writes are
// order-insensitive. The goroutine body is the called function literal
// when there is one; a named function is judged by its summary's
// package-variable writes (checkImpureCall).
func (r GoroutinePurityRule) checkGo(p *Package, guarded map[*types.Var]bool, g *ast.GoStmt) []Finding {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return r.checkImpureCall(p, g.Call)
	}
	params := make(map[types.Object]bool)
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	// An index derived from the goroutine's own parameters (or declared
	// inside the body) is a per-goroutine scatter destination.
	ownIndex := func(e ast.Expr) bool {
		own := true
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := p.Info.Uses[id].(*types.Var); ok {
				if !params[v] && !declaredWithin(v, lit) {
					own = false
				}
			}
			return true
		})
		return own
	}
	var out []Finding
	flag := func(pos token.Pos, what string) {
		out = append(out, Finding{
			RuleID: r.ID(),
			Pos:    p.Fset.Position(pos),
			Message: "goroutine " + what + "; the result depends on scheduling order — " +
				"scatter into disjoint indexes, reduce through a guarded field, or merge and sort",
		})
	}
	checkWrite := func(lhs ast.Expr) {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			v, ok := p.Info.Uses[lhs].(*types.Var)
			if ok && !params[v] && !declaredWithin(v, lit) {
				flag(lhs.Pos(), "writes shared variable "+v.Name())
			}
		case *ast.SelectorExpr:
			sel, ok := p.Info.Selections[lhs]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			if v, ok := sel.Obj().(*types.Var); ok && guarded[v] {
				return // documented mutex protocol, enforced by guarded-field
			}
			if base, ok := lhs.X.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[base].(*types.Var); ok && (params[v] || declaredWithin(v, lit)) {
					return // the goroutine's own value
				}
			}
			flag(lhs.Pos(), "writes unguarded shared field "+sel.Obj().Name())
		case *ast.IndexExpr:
			if !ownIndex(lhs.Index) {
				flag(lhs.Pos(), "writes a shared index the goroutine does not own")
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != lit {
				// Deferred completion tokens and nested literals run on
				// this goroutine; analyze their bodies too.
				return true
			}
		case *ast.CallExpr:
			out = append(out, r.checkImpureCall(p, n)...)
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.SendStmt:
			t := p.Info.TypeOf(n.Value)
			if t != nil {
				if st, ok := t.Underlying().(*types.Struct); ok && st.NumFields() == 0 {
					return true // empty-struct completion token
				}
			}
			flag(n.Arrow, "sends a value into a fan-in channel")
		}
		return true
	})
	return out
}

// checkImpureCall flags a call executed on a goroutine whose callee's
// summary writes package-level variables — the interprocedural shape of
// "goroutine writes shared state". Writes through parameters and
// receivers stay out of model (the caller may well pass goroutine-local
// state), so only the unambiguous package-variable core is reported.
func (r GoroutinePurityRule) checkImpureCall(p *Package, call *ast.CallExpr) []Finding {
	sum := r.Sums.ForCall(p, call)
	if sum == nil {
		return nil
	}
	var out []Finding
	for _, w := range sum.SharedWrites {
		msg := "goroutine runs " + sum.Name + ", which " + w.Detail
		if w.Chain != "" {
			msg += " (via " + w.Chain + ")"
		}
		msg += "; the result depends on scheduling order — " +
			"scatter into disjoint indexes, reduce through a guarded field, or merge and sort"
		out = append(out, Finding{
			RuleID:  r.ID(),
			Pos:     p.Fset.Position(call.Pos()),
			Message: msg,
		})
	}
	return out
}

// checkFanIn flags `v := <-ch` receives whose value is appended to a
// slice that is never totally sorted — nondeterministic merge order.
// Receives whose value is discarded (pure tokens) are fine.
func (r GoroutinePurityRule) checkFanIn(p *Package, g *flowGraph, fn funcUnit, cg *cfgGraph, recv *ast.UnaryExpr) []Finding {
	// Find an append whose argument derives from this receive.
	var out []Finding
	ast.Inspect(fn.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			v := appendTarget(p, as.Lhs[i], rhs)
			if v == nil {
				continue
			}
			call := rhs.(*ast.CallExpr)
			fromRecv := false
			for _, arg := range call.Args[1:] {
				if g.derivesFrom(arg, func(e ast.Expr) bool { return e == recv }) {
					fromRecv = true
				}
			}
			if !fromRecv || cg.sortedOnAllPaths(p, v, as) {
				continue
			}
			out = append(out, Finding{
				RuleID: r.ID(),
				Pos:    p.Fset.Position(as.Pos()),
				Message: "channel fan-in collects values in arrival order; " +
					"apply a total-order sort to " + v.Name() + " before use, or key results by origin",
			})
		}
		return true
	})
	return out
}

// checkRangeFanIn applies the same merge discipline to `for v := range
// ch` collection loops.
func (r GoroutinePurityRule) checkRangeFanIn(p *Package, fn funcUnit, cg *cfgGraph, rng *ast.RangeStmt) []Finding {
	if rng.Key == nil {
		return nil
	}
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return nil
	}
	var out []Finding
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			v := appendTarget(p, as.Lhs[i], rhs)
			if v == nil || cg.sortedOnAllPaths(p, v, rng) {
				continue
			}
			out = append(out, Finding{
				RuleID: r.ID(),
				Pos:    p.Fset.Position(as.Pos()),
				Message: "channel fan-in collects values in arrival order; " +
					"apply a total-order sort to " + v.Name() + " before use, or key results by origin",
			})
		}
		return true
	})
	return out
}
