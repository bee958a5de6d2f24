package lint

import (
	"go/ast"
)

// ParkRecheckRule enforces the scheduler era's second protocol
// invariant: sched.Wake(at) is a hint, not a guarantee of readiness,
// so any code that parks on a condition must re-check that condition
// in an enclosing loop — spurious wakes are legal by design, exactly
// as with sync.Cond.Wait. A bare
//
//	if !ready { t.Park() }
//
// is a latent hang-or-race: one spurious wake and the task proceeds
// with ready still false. The blessed shape is
//
//	for !ready { t.Park() }
//
// The check is a CFG fact, not a lexical one: the Park call's basic
// block must lie on a cycle (onCycle). `for { t.Park(); break }` is
// lexically inside a loop but has no back edge through the park, and
// is flagged. Helpers that park carry the obligation to their callers
// through the v4 summary field ParksUnchecked — a helper that parks
// inside its own re-check loop discharges the obligation itself and
// its callers are free; a helper that parks bare passes the obligation
// up, and a caller that invokes it inside a loop discharges it.
//
// When the park is the sole statement of an else-less, init-less if,
// the rewrite to a loop is mechanical (`if` → `for`, guard re-checked
// each wake) and the finding carries a -fix edit.
type ParkRecheckRule struct {
	SchedPackage string
	// Sums propagates unchecked parks out of helpers so the obligation
	// follows the call graph.
	Sums *Summarizer
}

// ID implements Rule.
func (ParkRecheckRule) ID() string { return "park-recheck" }

// Doc implements Rule.
func (ParkRecheckRule) Doc() string {
	return "Task.Park must sit in a loop that re-checks its guard: Wake is a hint and spurious wakes are legal"
}

// parkObligation is one call that parks (directly or via a helper
// whose summary says the park is not re-checked) and therefore must be
// on a CFG cycle in this function.
type parkObligation struct {
	call *ast.CallExpr
	via  string
}

// Check implements Rule.
func (r ParkRecheckRule) Check(p *Package) []Finding {
	if r.SchedPackage == "" || p.Path == r.SchedPackage {
		return nil
	}
	var out []Finding
	files := newFileSources(p)
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		var obligations []parkObligation
		ast.Inspect(fn.body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != fn.node {
				return false // literals are their own funcUnit
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Park" && receiverNamed(p, call, r.SchedPackage, "Task") {
				obligations = append(obligations, parkObligation{call: call})
				return true
			}
			if sum := r.Sums.ForCall(p, call); sum != nil && len(sum.ParksUnchecked) > 0 {
				e := sum.ParksUnchecked[0]
				obligations = append(obligations, parkObligation{
					call: call,
					via:  mergeChain(sum.Name, e.Chain),
				})
			}
			return true
		})
		if len(obligations) == 0 {
			continue
		}
		g := buildCFG(p, fn)
		for _, ob := range obligations {
			blk := g.blockFor(ob.call)
			if blk != nil && g.onCycle(blk) {
				continue
			}
			msg := "Task.Park"
			if ob.via != "" {
				msg += " (reached via " + ob.via + ")"
			}
			msg += " is not re-checked in an enclosing loop; Wake(at) is a hint and spurious wakes are legal — guard the park with `for cond { ... }`, not `if`"
			out = append(out, Finding{
				RuleID:  r.ID(),
				Pos:     p.Fset.Position(ob.call.Pos()),
				Message: msg,
				Fix:     r.ifToForFix(p, files, fn, ob.call),
			})
		}
	}
	return out
}

// ifToForFix returns the mechanical repair when the park is the sole
// statement of an else-less, init-less if: replacing the `if` keyword
// with `for` turns the guard into the re-check loop the protocol
// demands (the condition is re-evaluated after every wake). Any other
// shape — an else arm, an init statement, surrounding work in the
// body — changes meaning under the rewrite and is left to the author.
func (r ParkRecheckRule) ifToForFix(p *Package, files *fileSources, fn funcUnit, call *ast.CallExpr) *Fix {
	var target *ast.IfStmt
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if target != nil {
			return false
		}
		s, ok := n.(*ast.IfStmt)
		if !ok || s.Else != nil || s.Init != nil || len(s.Body.List) != 1 {
			return true
		}
		es, ok := s.Body.List[0].(*ast.ExprStmt)
		if !ok {
			return true
		}
		if containsNode(es.X, call) {
			target = s
			return false
		}
		return true
	})
	if target == nil {
		return nil
	}
	pos := p.Fset.Position(target.If)
	if _, err := files.source(pos.Filename); err != nil {
		return nil
	}
	off := pos.Offset
	return &Fix{
		Message: "re-check the guard in a loop: replace `if` with `for`",
		Edits: []TextEdit{{
			Filename: pos.Filename,
			Start:    off,
			End:      off + len("if"),
			NewText:  "for",
		}},
	}
}

// containsNode reports whether needle appears in the subtree rooted at
// root (by identity).
func containsNode(root ast.Node, needle ast.Node) bool {
	if root == nil {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == needle {
			found = true
			return false
		}
		return true
	})
	return found
}
