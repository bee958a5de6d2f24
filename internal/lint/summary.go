package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"sync"
)

// Interprocedural function summaries. The v2 dataflow engine stopped at
// call boundaries: a helper wrapping a collective, a size computed two
// calls away, or an impure callee was invisible to the semantic rules.
// This file adds the missing layer — a module-local call graph over
// go/types with bottom-up per-function summaries recording:
//
//   - collectives transitively invoked (with the call chain),
//   - rank taint through parameters and returns,
//   - shared-write and order-sensitive effect behavior,
//   - LDM-capacity provenance of returned sizes and transitive
//     ldm.Check* gating,
//   - allocation behavior (for the hot-path-alloc rule).
//
// Within one package, summaries are computed to a fixpoint so mutual
// recursion converges (entry lists are deduplicated by key and capped,
// and chains stop growing at chainLimit hops, which bounds the
// lattice). Across packages the import DAG guarantees termination:
// summarizing a package may demand its dependencies' summaries but
// never its own. Calls that resolve to nothing — interface methods,
// function values, packages outside the module — stay opaque exactly as
// in v2, so every propagated fact still traces to a definition the
// analysis saw.
//
// The Summarizer reads packages from the Loader that type-checked the
// package under analysis: a callee in another module package resolves
// to the Package that loader holds for it, whose declarations carry
// the very *types.Func objects the caller's type information refers
// to. So a package's summaries form one table keyed by *types.Func,
// computed once per analysis pass and read by callers in that package
// and in every package that imports it. Rule fixtures pose as
// arbitrary import paths; their own summaries come from their own AST,
// like any package's.

// CollectiveUse is one communicator collective a function reaches,
// directly or transitively.
type CollectiveUse struct {
	// Key is the collective-match key (see collectiveOps).
	Key string
	// Name is the Comm method name actually invoked.
	Name string
	// Chain is the call path from the summarized function to the
	// operation, " → "-separated; for a direct call it is the method
	// name itself.
	Chain string
}

// EffectUse is one behavior fact (shared write, order-sensitive effect
// or allocation) with the call chain that reaches it. An empty chain
// means the function does it directly.
type EffectUse struct {
	Detail string
	Chain  string
}

// FuncSummary is the bottom-up summary of one function declaration.
type FuncSummary struct {
	// Name is the short display form pkg.[Type.]Name used in chains
	// and finding messages.
	Name string

	// Collectives lists the communicator collectives the function
	// transitively enters.
	Collectives []CollectiveUse
	// SharedWrites lists writes to package-level variables, the
	// conservative core of impurity for goroutine-purity.
	SharedWrites []EffectUse
	// Effects lists order-sensitive effects for map-order: channel
	// sends, virtual-clock advancement, communicator traffic.
	Effects []EffectUse
	// Allocs lists allocation behavior for hot-path-alloc.
	Allocs []EffectUse
	// Blocks lists the scheduler blocking points the function
	// transitively reaches outside the communicator: Task.Park
	// (blocking collectives are already in Collectives).
	// The lock-across-park rule consults it at call sites.
	Blocks []EffectUse
	// ParksUnchecked lists Task.Park sites the function reaches with no
	// re-check loop of its own around them — the obligation to re-check
	// the guard transfers to the caller (rule park-recheck). A helper
	// that parks inside its own loop discharges the obligation and does
	// not propagate it.
	ParksUnchecked []EffectUse

	// RankReturn marks a function whose (basic-typed) return value
	// derives from the calling rank.
	RankReturn bool
	// LDMReturn marks a function whose return value derives from the
	// internal/ldm capacity model.
	LDMReturn bool
	// ChecksLDM marks a function that calls an ldm.Check* feasibility
	// check, directly or transitively.
	ChecksLDM bool
	// TaintParams are the parameter indices whose values flow into the
	// function's return values.
	TaintParams []int
}

const (
	// maxSummaryEntries caps each summary list; combined with
	// key-based deduplication it bounds the fixpoint lattice.
	maxSummaryEntries = 8
	// chainLimit is the maximum number of hops rendered in a call
	// chain before it ends in an ellipsis (recursion safety).
	chainLimit = 5
	chainSep   = " → "
)

// mergeChain prefixes a callee's chain with the callee's short name,
// truncating at chainLimit hops so recursive cycles converge.
func mergeChain(callee, sub string) string {
	if sub == "" {
		return callee
	}
	if strings.Count(sub, chainSep) >= chainLimit || strings.HasSuffix(sub, "…") {
		return callee + chainSep + "…"
	}
	return callee + chainSep + sub
}

// Summarizer computes and caches function summaries for one module. It
// is safe for concurrent use by Run's parallel package checks: each
// package's table is computed once, singleflight-style, and every
// caller waits for that one computation.
type Summarizer struct {
	module    string
	commPkg   string
	vclockPkg string
	ldmPkg    string
	schedPkg  string

	mu     sync.Mutex
	tables map[*Package]*summaryTable
}

// summaryTable is one package's summaries, filled once.
type summaryTable struct {
	once sync.Once
	fns  map[*types.Func]*FuncSummary
}

// NewSummarizer returns a summarizer for the module described by cfg.
func NewSummarizer(cfg Config) *Summarizer {
	return &Summarizer{
		module:    cfg.ModulePath,
		commPkg:   cfg.CommPackage,
		vclockPkg: cfg.VClockPackage,
		ldmPkg:    cfg.LDMPackage,
		schedPkg:  cfg.SchedPackage,
		tables:    make(map[*Package]*summaryTable),
	}
}

// ForCall resolves the summary of the function a call statically
// invokes, or nil when the callee is unresolvable (interface method,
// function value), outside the module, or a communicator/virtual-clock
// method (those the rules model directly).
func (s *Summarizer) ForCall(p *Package, call *ast.CallExpr) *FuncSummary {
	return s.lookupCallee(p, call, nil)
}

// lookupCallee is ForCall with an optional in-progress local table,
// used during a package's own fixpoint computation.
func (s *Summarizer) lookupCallee(p *Package, call *ast.CallExpr, local map[*types.Func]*FuncSummary) *FuncSummary {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return nil
	}
	path := fn.Pkg().Path()
	if path == s.commPkg || path == s.vclockPkg || path == s.schedPkg {
		// Substrate methods (Comm, Clock, Task/Sim) are what the rules
		// detect directly; their implementations are out of summary
		// scope.
		return nil
	}
	// A method of an instantiated generic type is a distinct object;
	// its summary is its generic declaration's.
	fn = fn.Origin()
	if fn.Pkg() == p.Pkg {
		if local != nil {
			return local[fn]
		}
		return s.packageTable(p)[fn]
	}
	if path != s.module && !strings.HasPrefix(path, s.module+"/") {
		return nil
	}
	dep := p.loader.loaded(fn.Pkg())
	if dep == nil {
		return nil
	}
	return s.packageTable(dep)[fn]
}

// packageTable returns the summaries of p's own function declarations,
// computed from p's AST on first demand (fixtures pose as arbitrary
// import paths, so a package is always summarized as loaded, never
// re-loaded by path).
func (s *Summarizer) packageTable(p *Package) map[*types.Func]*FuncSummary {
	s.mu.Lock()
	t, ok := s.tables[p]
	if !ok {
		t = &summaryTable{}
		s.tables[p] = t
	}
	s.mu.Unlock()
	t.once.Do(func() { t.fns = s.computePackage(p) })
	return t.fns
}

// computePackage iterates summarizeFunc over the package's function
// declarations until the table stops changing, so same-package
// (including mutual) recursion converges.
func (s *Summarizer) computePackage(p *Package) map[*types.Func]*FuncSummary {
	type item struct {
		fn   *types.Func
		unit funcUnit
	}
	var items []item
	for _, fu := range packageFuncs(p) {
		fd, ok := fu.node.(*ast.FuncDecl)
		if !ok || fu.body == nil {
			continue
		}
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		items = append(items, item{fn, fu})
	}
	table := make(map[*types.Func]*FuncSummary, len(items))
	for round := 0; round <= len(items)+1; round++ {
		changed := false
		for _, it := range items {
			ns := s.summarizeFunc(p, it.fn, it.unit, table)
			if !reflect.DeepEqual(table[it.fn], ns) {
				table[it.fn] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return table
}

// summarizeFunc computes one function's summary against the current
// table. Function-literal bodies are included: their effects run under
// the function's dynamic extent.
func (s *Summarizer) summarizeFunc(p *Package, fn *types.Func, unit funcUnit, local map[*types.Func]*FuncSummary) *FuncSummary {
	out := &FuncSummary{Name: funcShortName(fn)}
	seenCol := make(map[string]bool)
	seenSW := make(map[string]bool)
	seenEff := make(map[string]bool)
	seenAlloc := make(map[string]bool)
	seenBlk := make(map[string]bool)
	seenPark := make(map[string]bool)

	// Lexical loop spans: a park inside one of them re-executes with
	// the enclosing guard, so the re-check obligation is discharged in
	// this function and does not propagate to callers.
	var loopSpans [][2]token.Pos
	ast.Inspect(unit.body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			loopSpans = append(loopSpans, [2]token.Pos{l.Body.Pos(), l.Body.End()})
		case *ast.RangeStmt:
			loopSpans = append(loopSpans, [2]token.Pos{l.Body.Pos(), l.Body.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, span := range loopSpans {
			if pos >= span[0] && pos < span[1] {
				return true
			}
		}
		return false
	}
	addCol := func(key, name, chain string) {
		k := key + "\x00" + name
		if seenCol[k] || len(out.Collectives) >= maxSummaryEntries {
			return
		}
		seenCol[k] = true
		out.Collectives = append(out.Collectives, CollectiveUse{Key: key, Name: name, Chain: chain})
	}
	add := func(list *[]EffectUse, seen map[string]bool, detail, chain string) {
		if seen[detail] || len(*list) >= maxSummaryEntries {
			return
		}
		seen[detail] = true
		*list = append(*list, EffectUse{Detail: detail, Chain: chain})
	}

	ast.Inspect(unit.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			add(&out.Allocs, seenAlloc, "allocates a closure", "")
			return true
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(&out.Allocs, seenAlloc, "allocates a composite literal", "")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					add(&out.Allocs, seenAlloc, "allocates a composite literal", "")
				}
			}
		case *ast.SendStmt:
			add(&out.Effects, seenEff, "sends on a channel", "")
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					if v := pkgVarWrite(p, lhs); v != nil {
						add(&out.SharedWrites, seenSW, "writes package variable "+v.Name(), "")
					}
					if idx, ok := lhs.(*ast.IndexExpr); ok && isMapValue(p, idx.X) {
						add(&out.Allocs, seenAlloc, "performs a map operation", "")
					}
				}
			}
		case *ast.IncDecStmt:
			if v := pkgVarWrite(p, n.X); v != nil {
				add(&out.SharedWrites, seenSW, "writes package variable "+v.Name(), "")
			}
			if idx, ok := n.X.(*ast.IndexExpr); ok && isMapValue(p, idx.X) {
				add(&out.Allocs, seenAlloc, "performs a map operation", "")
			}
		case *ast.CallExpr:
			switch builtinName(p, n) {
			case "make":
				add(&out.Allocs, seenAlloc, "allocates with make", "")
				return true
			case "new":
				add(&out.Allocs, seenAlloc, "allocates with new", "")
				return true
			case "append":
				add(&out.Allocs, seenAlloc, "grows a slice with append", "")
				return true
			case "delete":
				add(&out.Allocs, seenAlloc, "performs a map operation", "")
				return true
			case "":
			default:
				return true
			}
			if s.commPkg != "" && receiverNamed(p, n, s.commPkg, "Comm") {
				name := n.Fun.(*ast.SelectorExpr).Sel.Name
				if key, ok := collectiveOps[name]; ok {
					addCol(key, name, name)
				}
				add(&out.Effects, seenEff, "performs communicator operation "+name, "")
				return true
			}
			if s.vclockPkg != "" && receiverNamed(p, n, s.vclockPkg, "Clock") {
				add(&out.Effects, seenEff, "advances the virtual clock", "")
				return true
			}
			if s.schedPkg != "" && receiverNamed(p, n, s.schedPkg, "Task") {
				if n.Fun.(*ast.SelectorExpr).Sel.Name == "Park" {
					add(&out.Blocks, seenBlk, "Task.Park", "")
					if !inLoop(n.Pos()) {
						add(&out.ParksUnchecked, seenPark, "Task.Park", "")
					}
				}
				return true
			}
			if callee := calleeFunc(p, n); callee != nil && callee.Pkg() != nil &&
				callee.Pkg().Path() == s.ldmPkg && strings.HasPrefix(callee.Name(), "Check") {
				out.ChecksLDM = true
				return true
			}
			if sum := s.lookupCallee(p, n, local); sum != nil {
				for _, c := range sum.Collectives {
					addCol(c.Key, c.Name, mergeChain(sum.Name, c.Chain))
				}
				for _, e := range sum.SharedWrites {
					add(&out.SharedWrites, seenSW, e.Detail, mergeChain(sum.Name, e.Chain))
				}
				for _, e := range sum.Effects {
					add(&out.Effects, seenEff, e.Detail, mergeChain(sum.Name, e.Chain))
				}
				for _, e := range sum.Allocs {
					add(&out.Allocs, seenAlloc, e.Detail, mergeChain(sum.Name, e.Chain))
				}
				for _, e := range sum.Blocks {
					add(&out.Blocks, seenBlk, e.Detail, mergeChain(sum.Name, e.Chain))
				}
				if !inLoop(n.Pos()) {
					for _, e := range sum.ParksUnchecked {
						add(&out.ParksUnchecked, seenPark, e.Detail, mergeChain(sum.Name, e.Chain))
					}
				}
				if sum.ChecksLDM {
					out.ChecksLDM = true
				}
			}
		}
		return true
	})

	// Return-value provenance: rank taint, LDM-capacity provenance and
	// parameter→return flow, each following calls through the current
	// table so chains of helpers resolve during the fixpoint.
	results := returnExprs(unit)
	if len(results) > 0 {
		g := newFlowGraph(p, unit)
		rankOr := s.taintOracle(p, local, func(sum *FuncSummary) bool { return sum.RankReturn })
		ldmOr := s.taintOracle(p, local, func(sum *FuncSummary) bool { return sum.LDMReturn })
		flowOr := s.taintOracle(p, local, nil)
		for _, e := range results {
			if !out.RankReturn && basicValued(p, e) &&
				g.derivesVia(e, func(x ast.Expr) bool { return isRankSource(p, x) }, rankOr) {
				out.RankReturn = true
			}
			if !out.LDMReturn && g.derivesVia(e, func(x ast.Expr) bool { return ldmSource(p, s.ldmPkg, x) }, ldmOr) {
				out.LDMReturn = true
			}
		}
		for i, pv := range paramVars(p, unit) {
			if pv == nil {
				continue
			}
			for _, e := range results {
				if g.derivesVia(e, func(x ast.Expr) bool {
					id, ok := x.(*ast.Ident)
					return ok && p.Info.Uses[id] == pv
				}, flowOr) {
					out.TaintParams = append(out.TaintParams, i)
					break
				}
			}
		}
	}
	return out
}

// taintOracle adapts summaries into the dataflow engine's call oracle:
// a call is a source when its callee's summary satisfies isSrc (nil
// means never), and taint crosses the call through the callee's
// parameter→return flow. Only basic-valued results carry taint — a
// Split-derived *Comm does not become rank taint, preserving the
// documented v2 design.
func (s *Summarizer) taintOracle(p *Package, local map[*types.Func]*FuncSummary, isSrc func(*FuncSummary) bool) func(*ast.CallExpr) (bool, []int) {
	return func(call *ast.CallExpr) (bool, []int) {
		sum := s.lookupCallee(p, call, local)
		if sum == nil || !basicValued(p, call) {
			return false, nil
		}
		src := false
		if isSrc != nil {
			src = isSrc(sum)
		}
		return src, sum.TaintParams
	}
}

// RankTaint returns the rule-level oracle for rank dependence: calls to
// helpers whose summaries return rank-derived values become sources.
func (s *Summarizer) RankTaint(p *Package) func(*ast.CallExpr) (bool, []int) {
	return s.taintOracle(p, nil, func(sum *FuncSummary) bool { return sum.RankReturn })
}

// LDMTaint returns the rule-level oracle for LDM-capacity provenance.
func (s *Summarizer) LDMTaint(p *Package) func(*ast.CallExpr) (bool, []int) {
	return s.taintOracle(p, nil, func(sum *FuncSummary) bool { return sum.LDMReturn })
}

// calleeFunc resolves the function object a call statically invokes:
// a plain function, a method, or a qualified pkg.Func reference.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		paren, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = paren.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcShortName is the display form pkg.[Type.]Name used in chains.
func funcShortName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		name = parts[len(parts)-1] + "." + name
	}
	return name
}

// pkgVarWrite returns the package-level variable an assignment
// destination writes, or nil.
func pkgVarWrite(p *Package, lhs ast.Expr) *types.Var {
	var id *ast.Ident
	switch l := lhs.(type) {
	case *ast.Ident:
		id = l
	case *ast.SelectorExpr:
		id = l.Sel
	default:
		return nil
	}
	if v, ok := p.Info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v
	}
	return nil
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(p *Package, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := p.Info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// isMapValue reports whether the expression's type is a map.
func isMapValue(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// basicValued reports whether the expression's type is basic (or a
// tuple of basics) — the only shapes that carry taint through a call
// result.
func basicValued(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if _, ok := tup.At(i).Type().Underlying().(*types.Basic); !ok {
				return false
			}
		}
		return tup.Len() > 0
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

// ldmSource reports whether e originates in the LDM capacity package:
// a call to any of its functions, or a reference to one of its
// package-level constants (ElemBytes, ElemsPerLDM).
func ldmSource(p *Package, ldmPkg string, e ast.Expr) bool {
	if ldmPkg == "" {
		return false
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(p, e); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == ldmPkg {
			return true
		}
	case *ast.SelectorExpr:
		if obj := p.Info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == ldmPkg {
			return true
		}
	}
	return false
}

// returnExprs collects the function's own return expressions, skipping
// nested function literals (their returns are not the function's).
func returnExprs(unit funcUnit) []ast.Expr {
	var out []ast.Expr
	if unit.body == nil {
		return nil
	}
	ast.Inspect(unit.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n.Results...)
		}
		return true
	})
	return out
}

// paramVars flattens the declaration's parameter list into variables,
// nil-padded for unnamed parameters so indices stay aligned with call
// arguments.
func paramVars(p *Package, unit funcUnit) []*types.Var {
	fd, ok := unit.node.(*ast.FuncDecl)
	if !ok || fd.Type.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			v, _ := p.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}
