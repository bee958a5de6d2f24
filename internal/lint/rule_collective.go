package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// CollectiveMatchRule statically detects the desynchronized-collective
// class of deadlock. In the simulated MPI world — exactly as on a real
// communicator — a collective is a contract every rank enters, in the
// same global sequence. A rank-dependent branch breaks the contract in
// two ways, and the rule reports both. A collective is missing when an
// mpi.Comm collective (or a point-to-point call on a gather path) on
// one arm has no matching call on the other: `if rank == 0 {
// comm.Bcast(...) }` with a silent else arm leaves the other ranks
// blocked forever. Collectives are reordered when two arms issue the
// same multiset in a different order —
//
//	if comm.Rank() == 0 {
//		comm.Bcast(...)
//		comm.Barrier()
//	} else {
//		comm.Barrier()
//		comm.Bcast(...)
//	}
//
// — and the ranks deadlock pairwise inside the first divergent
// operation. This is the static counterpart of what
// collective-verification tools like MUST check at runtime,
// specialized to this module's communicator.
//
// One walk per function visits every branch point whose condition
// depends on the calling rank (a Rank/Global/IsRoot/CG call, a variable
// or helper return derived from one, or a variable named "rank"): the
// two-arm if, each else-if link, the expression-less switch, and an
// early-exit arm, whose sibling is the code it skips. Branch points
// nested in rank arms and in case and comm clauses are visited too.
//
// Presence is matched by operation: a collective matches the same
// collective on the sibling arm, and Send and Recv match each other
// (the root-gathers/leaf-sends shape). The code an early-exit arm skips
// is a CFG fact, every node reachable from the branch's merge point,
// so collectives after the enclosing block participate.
//
// Order is checked where presence holds: for arms with the same flat
// multiset, the per-arm sequence sets are enumerated structurally
// (inner branches fork, loops contribute their flattened body once,
// returns end a path) and the rule fires when they differ. Send and
// Recv share one p2p key, so a root's recv loop against the leaves'
// single send is order-clean; helper-wrapped collectives compare by
// their summary sequence, so hoisting an arm into a helper changes
// nothing; and idiomatic error guards (`if err != nil { return err }`)
// are straight-line, not forks.
//
// Helpers are transparent on both sides: a call to a helper whose
// summary reaches a collective counts as that collective at the call
// site (the finding names the call chain), and branch conditions may
// derive their rank dependence through helper returns. Deliberately
// asymmetric protocols carry a
// //swlint:ignore collective-match -- <reason> suppression at the call.
type CollectiveMatchRule struct {
	// CommPackage is the import path of the communicator package; its
	// own implementation (tree broadcasts are rank-conditional sends by
	// construction) is out of scope.
	CommPackage string
	// Sums supplies the helper summaries.
	Sums *Summarizer
}

// ID implements Rule.
func (CollectiveMatchRule) ID() string { return "collective-match" }

// Doc implements Rule.
func (CollectiveMatchRule) Doc() string {
	return "rank-conditional arms must enter the same mpi collectives in the same order"
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

// collectiveWalk is the analysis state of one package: the function
// under walk's flow graph and CFG, and the findings reported so far,
// each once per position and message.
type collectiveWalk struct {
	r    CollectiveMatchRule
	p    *Package
	rank func(*ast.CallExpr) (bool, []int)
	g    *flowGraph
	cg   *cfgGraph
	seen map[findingKey]bool
	out  []Finding
}

type findingKey struct {
	pos token.Pos
	msg string
}

// Check implements Rule.
func (r CollectiveMatchRule) Check(p *Package) []Finding {
	if p.Path == r.CommPackage {
		return nil
	}
	w := &collectiveWalk{r: r, p: p, rank: r.Sums.RankTaint(p), seen: make(map[findingKey]bool)}
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		w.g = newFlowGraph(p, fn)
		w.cg = buildCFG(p, fn)
		w.block(fn.body.List)
	}
	return w.out
}

func (w *collectiveWalk) report(at ast.Node, msg string) {
	k := findingKey{at.Pos(), msg}
	if w.seen[k] {
		return
	}
	w.seen[k] = true
	w.out = append(w.out, Finding{RuleID: w.r.ID(), Pos: w.p.Fset.Position(at.Pos()), Message: msg})
}

// block walks one statement list and analyzes every branch point in
// it, at any depth.
func (w *collectiveWalk) block(stmts []ast.Stmt) {
	for i, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			w.ifStmt(s, stmts[i+1:])
		case *ast.SwitchStmt:
			if s.Tag == nil {
				w.switchStmt(s)
			}
			w.descend(s)
		default:
			w.descend(stmt)
		}
	}
}

// descend walks the statement lists nested in a statement: blocks and
// case and comm clause bodies. Function literals are their own units.
func (w *collectiveWalk) descend(stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			w.block(n.List)
			return false
		case *ast.CaseClause:
			w.block(n.Body)
			return false
		case *ast.CommClause:
			w.block(n.Body)
			return false
		}
		return true
	})
}

// ifStmt analyzes one if statement and the branch points in its arms.
// rest is the statement tail after the if in the enclosing list, the
// lexical code an early-exit arm skips.
func (w *collectiveWalk) ifStmt(s *ast.IfStmt, rest []ast.Stmt) {
	w.block(s.Body.List)
	var elseArm []ast.Stmt
	order := "the else arm"
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		w.block(e.List)
		elseArm = e.List
	case *ast.IfStmt:
		w.ifStmt(e, rest)
		elseArm = []ast.Stmt{e}
		order = "the else-if chain"
	}
	if !rankDependent(w.p, w.g, s.Cond, w.rank) {
		return
	}
	then := w.calls(s.Body.List)
	switch {
	case s.Else != nil:
		elseCalls := w.calls(elseArm)
		w.unmatched(then, elseCalls, "the else arm")
		w.unmatched(elseCalls, then, "the then arm")
		w.compareArms(s.Body.List, elseArm, order)
	case terminates(s.Body):
		// Early-exit guard: `if rank != 0 { ...; return }` makes the
		// rest of the function the other arm. For presence the tail is
		// every node reachable from the if's merge point, the arm
		// itself excluded.
		var tail []commCall
		for _, n := range w.cg.reachableNodes(w.cg.ifMerge[s], s) {
			tail = append(tail, w.r.collect(w.p, n)...)
		}
		w.unmatched(then, tail, "the code after this early-exit branch")
		w.unmatched(tail, then, "the early-exit branch above")
		w.compareArms(s.Body.List, rest, "the code after this early-exit branch")
	default:
		w.unmatched(then, nil, "the (missing) else arm")
	}
}

// switchStmt analyzes an expression-less switch whose case conditions
// are rank-dependent: every case against the union of its siblings for
// presence (the Level-3 stripe-gather shape: `case rank == 0: Recv...;
// case group == 0: Send`), and every pair of cases for order.
func (w *collectiveWalk) switchStmt(s *ast.SwitchStmt) {
	var arms [][]ast.Stmt
	anyRank := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, cond := range cc.List {
			anyRank = anyRank || rankDependent(w.p, w.g, cond, w.rank)
		}
		arms = append(arms, cc.Body)
	}
	if !anyRank {
		return
	}
	calls := make([][]commCall, len(arms))
	for i, arm := range arms {
		calls[i] = w.calls(arm)
	}
	for i := range arms {
		var siblings []commCall
		for j := range arms {
			if j != i {
				siblings = append(siblings, calls[j]...)
			}
		}
		w.unmatched(calls[i], siblings, "a sibling case")
		for j := i + 1; j < len(arms); j++ {
			w.compareArms(arms[i], arms[j], "a sibling case")
		}
	}
}

// unmatched reports the calls of one arm with no same-key partner in
// the sibling arm.
func (w *collectiveWalk) unmatched(calls, sibling []commCall, siblingName string) {
	keys := make(map[string]bool, len(sibling))
	for _, c := range sibling {
		keys[c.key] = true
	}
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
		w.report(c.call, "rank-conditional "+c.name+reached+" has no matching "+want+
			" in "+siblingName+"; the other ranks never enter the operation and the communicator deadlocks")
	}
}

// compareArms reports two arms that issue the same multiset of tracked
// calls in provably different orders; arms whose multisets differ are
// presence findings. Position is the first tracked call of the first
// arm — the earliest point a rank commits to the divergent order.
func (w *collectiveWalk) compareArms(armA, armB []ast.Stmt, siblingName string) {
	flatA := w.calls(armA)
	flatB := w.calls(armB)
	if len(flatA) == 0 || len(flatB) == 0 || !sameKeyMultiset(flatA, flatB) {
		return
	}
	b := &seqBuilder{p: w.p, r: w.r}
	seqsA := b.armSeqs(armA)
	seqsB := b.armSeqs(armB)
	if b.overflow {
		// Path explosion: compare the flat sequences only.
		seqsA = []string{renderSeq(callKeys(flatA))}
		seqsB = []string{renderSeq(callKeys(flatB))}
	}
	if slices.Equal(seqsA, seqsB) {
		return
	}
	repA := firstNotIn(seqsA, seqsB)
	repB := firstNotIn(seqsB, seqsA)
	if repA == "" {
		repA = seqsA[0]
	}
	if repB == "" {
		repB = seqsB[0]
	}
	first := flatA[0]
	reached := ""
	if first.via != "" {
		reached = " (first collective reached via " + first.via + ")"
	}
	w.report(first.call, "rank-divergent collective order"+reached+": this arm may enter ["+repA+"] while "+
		siblingName+" enters ["+repB+"]; same operations, different order — ranks deadlock pairwise inside the first divergent collective")
}

// calls flattens the tracked calls of a statement list in source order.
func (w *collectiveWalk) calls(stmts []ast.Stmt) []commCall {
	var out []commCall
	for _, st := range stmts {
		out = append(out, w.r.collect(w.p, st)...)
	}
	return out
}

// collect gathers the tracked communicator calls under n in source
// order, skipping nested function literals: a direct Comm method call,
// or a helper call contributing the collectives of its summary.
func (r CollectiveMatchRule) collect(p *Package, n ast.Node) []commCall {
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
			if key, tracked := collectiveOps[sel.Sel.Name]; tracked && receiverNamed(p, call, r.CommPackage, "Comm") {
				out = append(out, commCall{call: call, name: sel.Sel.Name, key: key})
				return true
			}
		}
		if sum := r.Sums.ForCall(p, call); sum != nil {
			for _, c := range sum.Collectives {
				out = append(out, commCall{call: call, name: c.Name, key: c.Key, via: mergeChain(sum.Name, c.Chain)})
			}
		}
		return true
	})
	return out
}

// terminates reports whether a block always transfers control out of
// the enclosing function: its last statement is a return or a call to
// panic.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	last := b.List[len(b.List)-1]
	_, ret := last.(*ast.ReturnStmt)
	return ret || terminatingStmt(last)
}

// terminatingStmt reports whether a plain statement never falls
// through: a panic call.
func terminatingStmt(st ast.Stmt) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func sameKeyMultiset(a, b []commCall) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int)
	for _, c := range a {
		counts[c.key]++
	}
	for _, c := range b {
		counts[c.key]--
		if counts[c.key] < 0 {
			return false
		}
	}
	return true
}

func callKeys(calls []commCall) []string {
	keys := make([]string, len(calls))
	for i, c := range calls {
		keys[i] = c.key
	}
	return keys
}

func firstNotIn(a, b []string) string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	for _, s := range a {
		if !in[s] {
			return s
		}
	}
	return ""
}

// seqBuilder enumerates the per-path collective sequences of an arm by
// structure: inner if/switch statements fork alternative suffixes,
// loops contribute their flattened body exactly once, return/panic and
// break/continue end the path. Enumeration is bounded (maxSeqPaths
// alternatives, maxSeqLen calls per path); on overflow the caller
// falls back to flat-sequence comparison.
type seqBuilder struct {
	p        *Package
	r        CollectiveMatchRule
	overflow bool
}

const (
	maxSeqPaths = 64
	maxSeqLen   = 32
)

// armSeqs returns the canonical (sorted, deduplicated) set of
// sequences for one arm, each rendered "key → key → …" ("∅" for the
// empty sequence).
func (b *seqBuilder) armSeqs(stmts []ast.Stmt) []string {
	active, finished := b.block(stmts)
	set := make(map[string]bool)
	for _, s := range append(active, finished...) {
		set[renderSeq(s)] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func renderSeq(keys []string) string {
	if len(keys) == 0 {
		return "∅"
	}
	return strings.Join(keys, " → ")
}

// block runs the statement list over a set of active path prefixes.
// finished paths left the list early (return, panic, break, continue).
func (b *seqBuilder) block(list []ast.Stmt) (active, finished [][]string) {
	active = [][]string{{}}
	for _, st := range list {
		if b.overflow {
			return
		}
		switch s := st.(type) {
		case *ast.IfStmt:
			if s.Init != nil {
				active = b.crossSeg(active, b.segment(s.Init))
			}
			active = b.crossSeg(active, b.segment(s.Cond))
			if b.errGuard(s) {
				// Idiomatic error guard (`if err != nil { return err }`
				// after a collective): the error path aborts the whole
				// protocol, and forking on it would make every inline
				// arm diverge from a helper-wrapped sibling whose
				// summary sequence is necessarily flat. Straight-line.
				continue
			}
			tAct, tFin := b.block(s.Body.List)
			var eAct, eFin [][]string
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				eAct, eFin = b.block(e.List)
			case *ast.IfStmt:
				eAct, eFin = b.block([]ast.Stmt{e})
			default:
				eAct = [][]string{{}}
			}
			cur := active
			finished = append(finished, b.crossAll(cur, tFin)...)
			finished = append(finished, b.crossAll(cur, eFin)...)
			active = b.dedup(append(b.crossAll(cur, tAct), b.crossAll(cur, eAct)...))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			var clauses []*ast.CaseClause
			hasDefault := false
			var body *ast.BlockStmt
			var head []ast.Node
			if sw, ok := s.(*ast.SwitchStmt); ok {
				body = sw.Body
				if sw.Init != nil {
					head = append(head, sw.Init)
				}
				if sw.Tag != nil {
					head = append(head, sw.Tag)
				}
			} else {
				ts := s.(*ast.TypeSwitchStmt)
				body = ts.Body
				if ts.Init != nil {
					head = append(head, ts.Init)
				}
				head = append(head, ts.Assign)
			}
			for _, h := range head {
				active = b.crossSeg(active, b.segment(h))
			}
			for _, c := range body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					clauses = append(clauses, cc)
					if cc.List == nil {
						hasDefault = true
					}
				}
			}
			cur := active
			var alts [][]string
			for _, cc := range clauses {
				aAct, aFin := b.block(cc.Body)
				finished = append(finished, b.crossAll(cur, aFin)...)
				alts = append(alts, aAct...)
			}
			if !hasDefault {
				alts = append(alts, []string{})
			}
			active = b.dedup(b.crossAll(cur, alts))
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt:
			// Loops and selects contribute their flattened body once;
			// iteration-count path splitting is collectively owned by
			// the runtime checks, not this enumeration.
			active = b.crossSeg(active, b.segment(st))
		case *ast.ReturnStmt:
			active = b.crossSeg(active, b.segment(st))
			finished = append(finished, active...)
			active = nil
		case *ast.BranchStmt:
			finished = append(finished, active...)
			active = nil
		case *ast.BlockStmt:
			aAct, aFin := b.block(s.List)
			cur := active
			finished = append(finished, b.crossAll(cur, aFin)...)
			active = b.dedup(b.crossAll(cur, aAct))
		default:
			if terminatingStmt(st) {
				active = b.crossSeg(active, b.segment(st))
				finished = append(finished, active...)
				active = nil
				continue
			}
			active = b.crossSeg(active, b.segment(st))
		}
	}
	return active, finished
}

// errGuard reports whether s is an idiomatic error guard: an else-less
// if on an error-nil comparison whose body always leaves the function
// and issues no tracked calls of its own. Such guards are blessed as
// straight-line rather than forked — see the comment at the use site.
func (b *seqBuilder) errGuard(s *ast.IfStmt) bool {
	if s.Else != nil || !terminates(s.Body) {
		return false
	}
	if len(b.r.collect(b.p, s.Body)) != 0 {
		return false
	}
	return errNilCond(b.p, s.Cond)
}

// errNilCond reports whether cond compares an error-typed operand
// against nil.
func errNilCond(p *Package, cond ast.Expr) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var other ast.Expr
	switch {
	case isNil(be.X):
		other = be.Y
	case isNil(be.Y):
		other = be.X
	default:
		return false
	}
	tv, ok := p.Info.Types[other]
	if !ok || tv.Type == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(tv.Type, errType)
}

// segment flattens the tracked-call keys under one node in source
// order.
func (b *seqBuilder) segment(n ast.Node) []string {
	return callKeys(b.r.collect(b.p, n))
}

// crossSeg appends one segment to every active path.
func (b *seqBuilder) crossSeg(active [][]string, seg []string) [][]string {
	if len(seg) == 0 || len(active) == 0 {
		return active
	}
	out := make([][]string, 0, len(active))
	for _, a := range active {
		n := append(append([]string{}, a...), seg...)
		if len(n) > maxSeqLen {
			b.overflow = true
			return active
		}
		out = append(out, n)
	}
	return out
}

// crossAll concatenates every prefix with every alternative suffix.
func (b *seqBuilder) crossAll(prefixes, suffixes [][]string) [][]string {
	var out [][]string
	for _, pre := range prefixes {
		for _, suf := range suffixes {
			n := append(append([]string{}, pre...), suf...)
			if len(n) > maxSeqLen {
				b.overflow = true
				return out
			}
			out = append(out, n)
			if len(out) > maxSeqPaths {
				b.overflow = true
				return out
			}
		}
	}
	return out
}

// dedup collapses identical paths, keeping enumeration bounded across
// chains of independent branches.
func (b *seqBuilder) dedup(paths [][]string) [][]string {
	seen := make(map[string]bool, len(paths))
	out := paths[:0]
	for _, p := range paths {
		k := strings.Join(p, "\x00")
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	if len(out) > maxSeqPaths {
		b.overflow = true
	}
	return out
}
