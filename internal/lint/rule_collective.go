package lint

import (
	"go/ast"
)

// CollectiveMatchRule statically detects the desynchronized-collective
// class of deadlock: an mpi.Comm collective (or a point-to-point call
// on a gather path) reached under a rank-dependent branch with no
// matching call on the other branch arm. In the simulated MPI world —
// exactly as on a real communicator — a collective is a contract every
// rank must enter; `if rank == 0 { comm.Bcast(...) }` with a silent
// else arm leaves the other ranks blocked forever. This is the
// static counterpart of what collective-verification tools like MUST
// check at runtime, specialized to this module's communicator.
//
// The analysis is per function (intraprocedural) over if/else chains
// and expression-less switch statements whose condition depends on the
// calling rank (a Rank/Global/IsRoot/CG call, a variable derived from
// one, or a variable named "rank"), using the package's value-flow
// pass. Matching is by operation: a collective matches the same
// collective on the sibling arm; Send and Recv match each other (the
// root-gathers/leaf-sends shape). A rank-dependent arm that returns
// early makes the rest of the function conditional, so collectives
// after it must match a call inside the arm.
//
// Deliberately asymmetric protocols carry a
// //swlint:ignore collective-match -- <reason> suppression at the call.
type CollectiveMatchRule struct {
	// CommPackage is the import path of the communicator package; its
	// own implementation (tree broadcasts are rank-conditional sends by
	// construction) is out of scope.
	CommPackage string
	// Sums, when non-nil, extends the analysis interprocedurally: a
	// call to a helper whose summary reaches a collective counts as
	// that collective at the call site (the finding names the call
	// chain), and branch conditions may derive their rank dependence
	// through helper returns. Nil restores the v2 intraprocedural
	// behavior.
	Sums *Summarizer
}

// ID implements Rule.
func (CollectiveMatchRule) ID() string { return "collective-match" }

// Doc implements Rule.
func (CollectiveMatchRule) Doc() string {
	return "rank-conditional mpi collectives must have a matching call on the other branch arm"
}

// collectiveOps classifies the Comm methods the rule tracks into match
// keys: same-key calls on sibling arms satisfy each other.
var collectiveOps = map[string]string{
	"Barrier":           "Barrier",
	"Bcast":             "Bcast",
	"AllReduceSum":      "AllReduceSum",
	"AllReduceSumRing":  "AllReduceSumRing",
	"AllReduceRows":     "AllReduceRows",
	"AllReduceMinPairs": "AllReduceMinPairs",
	"AllGatherInts":     "AllGatherInts",
	"Split":             "Split",
	"Send":              "p2p",
	"Recv":              "p2p",
}

// commCall is one tracked communicator call. via is empty for a direct
// Comm method call; for a summary-propagated collective it is the call
// chain from the invoked helper down to the operation.
type commCall struct {
	call *ast.CallExpr
	name string
	key  string
	via  string
}

// rankOracle builds the per-package call oracle extending rank
// dependence through helper returns, or nil without summaries.
func (r CollectiveMatchRule) rankOracle(p *Package) func(*ast.CallExpr) (bool, []int) {
	if r.Sums == nil {
		return nil
	}
	return r.Sums.RankTaint(p)
}

// Check implements Rule.
func (r CollectiveMatchRule) Check(p *Package) []Finding {
	if p.Path == r.CommPackage {
		return nil
	}
	var out []Finding
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		g := newFlowGraph(p, fn)
		cg := buildCFG(p, fn)
		out = append(out, r.checkBlock(p, g, cg, fn.body.List, fn)...)
	}
	return out
}

// checkBlock walks one statement list, descending into nested blocks,
// and analyzes every rank-dependent branch point it finds.
func (r CollectiveMatchRule) checkBlock(p *Package, g *flowGraph, cg *cfgGraph, stmts []ast.Stmt, fn funcUnit) []Finding {
	var out []Finding
	for i, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			out = append(out, r.checkIf(p, g, cg, s, stmts[i+1:], fn)...)
		case *ast.SwitchStmt:
			if s.Tag == nil {
				out = append(out, r.checkSwitch(p, g, s)...)
			} else {
				out = append(out, r.descend(p, g, cg, s, fn)...)
			}
			continue
		default:
			out = append(out, r.descend(p, g, cg, stmt, fn)...)
		}
	}
	return out
}

// descend recurses into the nested blocks of a non-branch statement
// (loops, blocks, function literals are excluded — literals are their
// own funcUnits).
func (r CollectiveMatchRule) descend(p *Package, g *flowGraph, cg *cfgGraph, stmt ast.Stmt, fn funcUnit) []Finding {
	var out []Finding
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			// Only descend into blocks that are loop/select bodies etc.;
			// if-statements inside are handled by checkBlock.
			out = append(out, r.checkBlock(p, g, cg, n.List, fn)...)
			return false
		}
		return true
	})
	return out
}

// checkIf analyzes one if statement. rest is the statement tail after
// the if in the enclosing block, consulted when the rank-dependent arm
// terminates.
func (r CollectiveMatchRule) checkIf(p *Package, g *flowGraph, cg *cfgGraph, s *ast.IfStmt, rest []ast.Stmt, fn funcUnit) []Finding {
	var out []Finding
	if !rankDependent(p, g, s.Cond, r.rankOracle(p)) {
		// Not a rank branch: analyze both arms as plain blocks.
		out = append(out, r.checkBlock(p, g, cg, s.Body.List, fn)...)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				out = append(out, r.checkBlock(p, g, cg, e.List, fn)...)
			case *ast.IfStmt:
				out = append(out, r.checkIf(p, g, cg, e, rest, fn)...)
			}
		}
		return out
	}

	thenCalls := r.collectCalls(p, s.Body)
	var elseCalls []commCall
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseCalls = r.collectCalls(p, e)
	case *ast.IfStmt:
		// else-if chain: treat the whole chain as the sibling arm.
		elseCalls = r.collectCalls(p, e)
	}

	if s.Else == nil && terminates(s.Body) {
		// Early-exit guard: `if rank != 0 { ...; return }` makes the
		// rest of the function the other arm. The tail is a CFG fact —
		// every node reachable from the if's merge point, the branch's
		// own arm excluded — so collectives after the enclosing block
		// (which the v3 lexical tail could not see) participate in
		// matching.
		var tail []commCall
		if merge := cg.ifMerge[s]; merge != nil {
			for _, n := range cg.reachableNodes(merge, s) {
				tail = append(tail, r.collectCalls(p, n)...)
			}
		} else {
			// Fallback (if inside a nested function literal whose graph
			// this is not): the lexical tail.
			for _, st := range rest {
				tail = append(tail, r.collectCalls(p, st)...)
			}
		}
		out = append(out, unmatched(p, r.ID(), thenCalls, tail, "the code after this early-exit branch")...)
		out = append(out, unmatched(p, r.ID(), tail, thenCalls, "the early-exit branch above")...)
		return out
	}

	arm := "the else arm"
	if s.Else == nil {
		arm = "the (missing) else arm"
	}
	out = append(out, unmatched(p, r.ID(), thenCalls, elseCalls, arm)...)
	out = append(out, unmatched(p, r.ID(), elseCalls, thenCalls, "the then arm")...)
	return out
}

// checkSwitch analyzes an expression-less switch whose case conditions
// are rank-dependent: every tracked call in one case must find a match
// in some sibling case (the Level-3 stripe-gather shape:
// `case rank == 0: Recv...; case group == 0: Send`).
func (r CollectiveMatchRule) checkSwitch(p *Package, g *flowGraph, s *ast.SwitchStmt) []Finding {
	type armInfo struct {
		calls   []commCall
		rankDep bool
	}
	var arms []armInfo
	anyRank := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		dep := false
		for _, cond := range cc.List {
			if rankDependent(p, g, cond, r.rankOracle(p)) {
				dep = true
				break
			}
		}
		anyRank = anyRank || dep
		var calls []commCall
		for _, st := range cc.Body {
			calls = append(calls, r.collectCalls(p, st)...)
		}
		arms = append(arms, armInfo{calls: calls, rankDep: dep})
	}
	if !anyRank {
		return nil
	}
	var out []Finding
	for i, arm := range arms {
		var siblings []commCall
		for j, other := range arms {
			if j != i {
				siblings = append(siblings, other.calls...)
			}
		}
		out = append(out, unmatched(p, r.ID(), arm.calls, siblings, "a sibling case")...)
	}
	return out
}

// collectCalls gathers the tracked communicator calls under n,
// skipping nested function literals and nested rank-independent
// structure alike — matching is structural, not path-sensitive. With
// summaries enabled, a call to a helper that transitively enters a
// collective contributes that collective at the call site.
func (r CollectiveMatchRule) collectCalls(p *Package, n ast.Node) []commCall {
	return collectCommCalls(p, n, r.CommPackage, r.Sums)
}

// collectCommCalls is the shared collector behind collective-match and
// collective-order: every tracked Comm call under n, in source order,
// with summary-propagated collectives contributed at the helper call
// site.
func collectCommCalls(p *Package, n ast.Node, commPkg string, sums *Summarizer) []commCall {
	var out []commCall
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if key, tracked := collectiveOps[sel.Sel.Name]; tracked && receiverNamed(p, call, commPkg, "Comm") {
				out = append(out, commCall{call: call, name: sel.Sel.Name, key: key})
				return true
			}
		}
		if sums != nil {
			if sum := sums.ForCall(p, call); sum != nil {
				for _, c := range sum.Collectives {
					out = append(out, commCall{call: call, name: c.Name, key: c.Key, via: mergeChain(sum.Name, c.Chain)})
				}
			}
		}
		return true
	})
	return out
}

// unmatched reports the calls of one arm with no same-key partner in
// the sibling arm.
func unmatched(p *Package, ruleID string, calls, sibling []commCall, siblingName string) []Finding {
	keys := make(map[string]bool, len(sibling))
	for _, c := range sibling {
		keys[c.key] = true
	}
	var out []Finding
	for _, c := range calls {
		if keys[c.key] {
			continue
		}
		want := c.name
		if c.key == "p2p" {
			want = "Send or Recv"
		}
		reached := ""
		if c.via != "" {
			reached = " (reached via " + c.via + ")"
		}
		out = append(out, Finding{
			RuleID: ruleID,
			Pos:    p.Fset.Position(c.call.Pos()),
			Message: "rank-conditional " + c.name + reached + " has no matching " + want +
				" in " + siblingName + "; the other ranks never enter the operation and the communicator deadlocks",
		})
	}
	return out
}

// terminates reports whether a block always transfers control out of
// the enclosing function: its last statement is a return or a call to
// panic.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BranchStmt:
		return false
	}
	return false
}
