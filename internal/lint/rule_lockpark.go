package lint

import (
	"go/ast"
	"strings"
)

// LockAcrossParkRule enforces the scheduler era's first protocol
// invariant: never hold a sync.Mutex or sync.RWMutex across a blocking
// point — sched.Task.Park, vclock.Group.Sync, or a blocking
// communicator collective. Under the discrete-event scheduler a parked
// task runs again only when a peer wakes it; if that peer needs the
// mutex the parked task still holds, the simulation deadlocks — and
// unlike a -race report, it deadlocks only on the schedules that hit
// the window. The invariant was previously stated in prose in
// internal/sched and internal/vclock; this rule states it in the CFG:
// a forward lock-set dataflow (cfg.go) tracks which mutexes may be
// held at every block, and any blocking call reached with a non-empty
// set is flagged. Helper calls carry their transitive blocking points
// through the v3 function summaries, so wrapping a Park in a helper
// does not hide it.
//
// The blessed shape is the one internal/vclock's syncSched uses:
//
//	g.mu.Lock()
//	...
//	for g.round == myRound {
//		g.mu.Unlock()
//		self.Park()
//		g.mu.Lock()
//	}
//	g.mu.Unlock()
//
// The analysis sees the unlock before the Park on every path into it,
// so the set is empty at the blocking point. `defer mu.Unlock()` does
// NOT release along the path — the unlock runs at function exit, after
// any park the body reaches.
//
// Hoisting an unlock above a park reorders the critical section and is
// not mechanically safe, so there is no autofix. Deliberate exceptions
// carry //swlint:ignore lock-across-park -- <reason>.
type LockAcrossParkRule struct {
	CommPackage   string
	VClockPackage string
	SchedPackage  string
	// Sums extends the rule through the call graph: calling a helper
	// whose summary blocks (parks, syncs, or enters a collective) counts
	// as blocking at the call site.
	Sums *Summarizer
}

// ID implements Rule.
func (LockAcrossParkRule) ID() string { return "lock-across-park" }

// Doc implements Rule.
func (LockAcrossParkRule) Doc() string {
	return "no mutex may be held across Task.Park, Group.Sync, or a blocking collective, transitively through helpers"
}

// blockPoint describes why a call blocks: the operation and, for a
// summary-propagated helper, the call chain that reaches it.
type blockPoint struct {
	desc string
	via  string
}

// blockingPoint classifies a call as a scheduler blocking point:
// Task.Park, Group.Sync, a blocking Comm collective (every tracked
// collective blocks, point-to-point included), or a module-local
// helper that transitively reaches one.
func blockingPoint(p *Package, call *ast.CallExpr, commPkg, vclockPkg, schedPkg string, sums *Summarizer) (blockPoint, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if schedPkg != "" && name == "Park" && receiverNamed(p, call, schedPkg, "Task") {
			return blockPoint{desc: "Task.Park"}, true
		}
		if vclockPkg != "" && name == "Sync" && receiverNamed(p, call, vclockPkg, "Group") {
			return blockPoint{desc: "Group.Sync"}, true
		}
		if commPkg != "" && receiverNamed(p, call, commPkg, "Comm") {
			if _, tracked := collectiveOps[name]; tracked {
				return blockPoint{desc: "Comm." + name}, true
			}
		}
	}
	if sum := sums.ForCall(p, call); sum != nil {
		if len(sum.Blocks) > 0 {
			b := sum.Blocks[0]
			return blockPoint{desc: b.Detail, via: mergeChain(sum.Name, b.Chain)}, true
		}
		if len(sum.Collectives) > 0 {
			c := sum.Collectives[0]
			return blockPoint{desc: "Comm." + c.Name, via: mergeChain(sum.Name, c.Chain)}, true
		}
	}
	return blockPoint{}, false
}

// Check implements Rule.
func (r LockAcrossParkRule) Check(p *Package) []Finding {
	var out []Finding
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		g := buildCFG(p, fn)
		if !r.hasMutexOps(p, g) {
			continue // no locks in this function, nothing to hold
		}
		in := g.lockSets(p)
		seen := make(map[*ast.CallExpr]bool)
		for _, blk := range g.blocks {
			held := copyLockSet(in[blk])
			applyLockOps(p, blk, held, func(call *ast.CallExpr, held map[string]bool) {
				if len(held) == 0 || seen[call] {
					return
				}
				bp, ok := blockingPoint(p, call, r.CommPackage, r.VClockPackage, r.SchedPackage, r.Sums)
				if !ok {
					return
				}
				seen[call] = true
				reached := ""
				if bp.via != "" {
					reached = " (reached via " + bp.via + ")"
				}
				out = append(out, Finding{
					RuleID: r.ID(),
					Pos:    p.Fset.Position(call.Pos()),
					Message: "mutex " + strings.Join(heldNames(held), ", ") + " may be held across " + bp.desc + reached +
						"; unlock before blocking and re-lock after — the waker may need the mutex and the task never runs again",
				})
			})
		}
	}
	return out
}

// hasMutexOps reports whether any block performs a mutex operation —
// the cheap gate before running the dataflow.
func (r LockAcrossParkRule) hasMutexOps(p *Package, g *cfgGraph) bool {
	for _, blk := range g.blocks {
		for _, node := range blk.nodes {
			found := false
			ast.Inspect(node, func(n ast.Node) bool {
				if found {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if _, isOp := mutexOp(p, call); isOp {
						found = true
						return false
					}
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}
