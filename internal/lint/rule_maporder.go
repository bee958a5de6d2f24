package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrderRule flags `range` over a map inside a simulation package
// when the loop body has an order-sensitive effect: Go randomizes map
// iteration order per run, so any such loop whose effect reaches
// simulation state, an exported artifact or a virtual clock breaks the
// byte-identical-replay contract. Order-sensitive effects are:
//
//   - writes to package-level variables or struct fields (unless the
//     destination is the map's own entry, reached through the range
//     value or indexed by the range key — those are per-entry and
//     order-insensitive),
//   - appends to slices,
//   - channel sends,
//   - virtual-clock advancement (any vclock.Clock method call),
//   - communicator traffic (any mpi.Comm method call).
//
// The one blessed pattern is key collection: a body that only appends
// the keys (or derived values) to a local slice which is then passed
// to a total-order sort — sort.Ints, sort.Strings, sort.Float64s or
// slices.Sort — before use. sort.Slice does not qualify: whether its
// comparator is total cannot be checked statically, and an unstable
// sort under a partial order is the same nondeterminism again.
type MapOrderRule struct {
	// SimPackages scopes the rule, like no-wallclock.
	SimPackages []string
	// VClockPackage and CommPackage locate the virtual-clock and
	// communicator types whose use inside a map range is order-sensitive.
	VClockPackage string
	CommPackage   string
	// Sums makes calls transparent: a call to a helper whose summary
	// carries shared writes or order-sensitive effects (channel sends,
	// clock advancement, communicator traffic) is an effect of the
	// range body, reported with the call chain.
	Sums *Summarizer
}

// ID implements Rule.
func (MapOrderRule) ID() string { return "map-order" }

// Doc implements Rule.
func (MapOrderRule) Doc() string {
	return "map iteration with order-sensitive effects in simulation packages must sort keys first"
}

// mapEffect is one order-sensitive effect found in a range body.
type mapEffect struct {
	pos  token.Pos
	kind string
	// appendTo is the local slice variable receiving an append, when
	// the effect is an append eligible for the sorted-collection
	// exemption.
	appendTo *types.Var
}

// Check implements Rule.
func (r MapOrderRule) Check(p *Package) []Finding {
	if !hasSuffixPath(p.Path, r.SimPackages) {
		return nil
	}
	var out []Finding
	files := newFileSources(p)
	for _, fn := range packageFuncs(p) {
		if fn.body == nil {
			continue
		}
		g := newFlowGraph(p, fn)
		fnScope := fn
		var cg *cfgGraph // built on first order-sensitive loop
		ast.Inspect(fn.body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != fnScope.node {
				return false // literals are their own funcUnits
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if rng.Key == nil {
				// `for range m` runs identical iterations; order cannot
				// reach the result.
				return true
			}
			effects := r.rangeEffects(p, g, rng)
			if len(effects) == 0 {
				return true
			}
			if cg == nil {
				cg = buildCFG(p, fnScope)
			}
			if allSortedCollections(p, cg, rng, effects) {
				return true
			}
			f := Finding{
				RuleID: r.ID(),
				Pos:    p.Fset.Position(rng.For),
				Message: fmt.Sprintf("map iteration order reaches simulation state (%s); "+
					"iterate sorted keys, or collect into a slice and apply a total-order sort "+
					"(sort.Ints/Strings/Float64s, slices.Sort)", effects[0].kind),
			}
			f.Fix = r.sortedKeysFix(p, files, fnScope, rng)
			out = append(out, f)
			return true
		})
	}
	return out
}

// rangeEffects scans one map-range body for order-sensitive effects.
func (r MapOrderRule) rangeEffects(p *Package, g *flowGraph, rng *ast.RangeStmt) []mapEffect {
	var effects []mapEffect
	perEntry := func(e ast.Expr) bool {
		// An expression reached through the range key or value denotes
		// the entry itself: writing there is per-entry, not ordered.
		return g.derivesFrom(e, func(src ast.Expr) bool {
			return src == rng.X || isRangeVarUse(p, src, rng)
		})
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					continue
				}
				if e := r.writeEffect(p, g, rng, lhs, perEntry); e != nil {
					effects = append(effects, *e)
					continue
				}
				// Appends: s = append(s, ...) in any assignment form.
				if i < len(n.Rhs) || len(n.Rhs) == 1 {
					rhs := n.Rhs[min(i, len(n.Rhs)-1)]
					if v := appendTarget(p, lhs, rhs); v != nil && !declaredWithin(v, rng) {
						effects = append(effects, mapEffect{pos: lhs.Pos(), kind: "append to slice " + v.Name(), appendTo: v})
					}
				}
			}
		case *ast.IncDecStmt:
			if e := r.writeEffect(p, g, rng, n.X, perEntry); e != nil {
				effects = append(effects, *e)
			}
		case *ast.SendStmt:
			effects = append(effects, mapEffect{pos: n.Arrow, kind: "channel send"})
		case *ast.CallExpr:
			if r.VClockPackage != "" && receiverNamed(p, n, r.VClockPackage, "Clock") {
				effects = append(effects, mapEffect{pos: n.Pos(), kind: "virtual-clock advancement"})
			} else if r.CommPackage != "" && receiverNamed(p, n, r.CommPackage, "Comm") {
				effects = append(effects, mapEffect{pos: n.Pos(), kind: "communicator operation"})
			} else if sum := r.Sums.ForCall(p, n); sum != nil {
				if kind := summaryOrderEffect(sum); kind != "" {
					effects = append(effects, mapEffect{pos: n.Pos(), kind: kind})
				}
			}
		}
		return true
	})
	return effects
}

// writeEffect classifies an assignment destination as order-sensitive
// state, or nil when it is loop-local or per-entry.
func (r MapOrderRule) writeEffect(p *Package, g *flowGraph, rng *ast.RangeStmt,
	lhs ast.Expr, perEntry func(ast.Expr) bool) *mapEffect {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[lhs].(*types.Var)
		if !ok || declaredWithin(v, rng) {
			return nil
		}
		if v.Parent() == v.Pkg().Scope() {
			return &mapEffect{pos: lhs.Pos(), kind: "write to package variable " + v.Name()}
		}
		return nil // plain local writes are out of model (documented limit)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if perEntry(lhs.X) {
				return nil
			}
			if id, ok := lhs.X.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && declaredWithin(v, rng) {
					return nil
				}
			}
			return &mapEffect{pos: lhs.Pos(), kind: "write to struct field " + sel.Obj().Name()}
		}
		if v, ok := p.Info.Uses[lhs.Sel].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
			return &mapEffect{pos: lhs.Pos(), kind: "write to package variable " + v.Name()}
		}
		return nil
	case *ast.IndexExpr:
		if perEntry(lhs.Index) || perEntry(lhs.X) {
			return nil // deterministic destination keyed by the entry
		}
		return &mapEffect{pos: lhs.Pos(), kind: "order-dependent indexed write"}
	case *ast.StarExpr:
		if perEntry(lhs.X) {
			return nil
		}
		return &mapEffect{pos: lhs.Pos(), kind: "write through pointer"}
	}
	return nil
}

// summaryOrderEffect renders a callee summary's first order-sensitive
// behavior as an effect description carrying the call chain, or "" for
// a callee the summaries consider order-clean. Allocation facts do not
// count: allocating inside a map range is order-insensitive.
func summaryOrderEffect(sum *FuncSummary) string {
	var use *EffectUse
	if len(sum.SharedWrites) > 0 {
		use = &sum.SharedWrites[0]
	} else if len(sum.Effects) > 0 {
		use = &sum.Effects[0]
	}
	if use == nil {
		return ""
	}
	kind := "call to " + sum.Name + " which " + use.Detail
	if use.Chain != "" {
		kind += " (via " + use.Chain + ")"
	}
	return kind
}

// isRangeVarUse reports whether e is a use of the range's key or value
// variable.
func isRangeVarUse(p *Package, e ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	for _, decl := range []ast.Expr{rng.Key, rng.Value} {
		if did, ok := decl.(*ast.Ident); ok && p.Info.Defs[did] == obj {
			return true
		}
	}
	return false
}

// allSortedCollections reports whether every effect is an append to a
// local slice that a total-order sort fixes up on every path out of
// the loop. The CFG fact replaces the v3 positional check: a sort
// behind a condition no longer blesses the loop (some path escapes
// unsorted), while a sort reached only via an enclosing loop's back
// edge now does.
func allSortedCollections(p *Package, g *cfgGraph, rng *ast.RangeStmt, effects []mapEffect) bool {
	for _, e := range effects {
		if e.appendTo == nil || !g.sortedOnAllPaths(p, e.appendTo, rng) {
			return false
		}
	}
	return true
}

// appendTarget matches `lhs = append(lhs, ...)` and returns the slice
// variable, or nil.
func appendTarget(p *Package, lhs, rhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if _, isBuiltin := p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if u, ok := p.Info.Uses[first].(*types.Var); !ok || u != v {
		return nil
	}
	return v
}

// sortKeyFuncs maps fixable key types to their total-order sort call.
var sortKeyFuncs = map[string]string{
	"int":     "sort.Ints",
	"string":  "sort.Strings",
	"float64": "sort.Float64s",
}

// sortedKeysFix builds the mechanical sorted-key rewrite
//
//	for k, v := range m { body }
//
// into
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.FN(keys)
//	for _, k := range keys {
//		v := m[k]
//		body
//	}
//
// when the pattern is safely rewriteable: plain int/string/float64 key
// type, a pure (identifier/selector) map expression, := range form,
// and no label on the loop. It returns nil otherwise and the finding
// stays manual.
func (r MapOrderRule) sortedKeysFix(p *Package, files *fileSources, fn funcUnit, rng *ast.RangeStmt) *Fix {
	if rng.Tok != token.DEFINE {
		return nil
	}
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	var valID *ast.Ident
	if rng.Value != nil {
		v, ok := rng.Value.(*ast.Ident)
		if !ok {
			return nil
		}
		valID = v
	}
	t := p.Info.TypeOf(rng.X)
	mt, ok := t.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	keyType := types.TypeString(mt.Key(), nil)
	sortFn, ok := sortKeyFuncs[keyType]
	if !ok {
		return nil
	}
	if !pureExpr(rng.X) || isLabeled(p, rng) {
		return nil
	}
	src, err := files.source(p.Fset.Position(rng.Pos()).Filename)
	if err != nil {
		return nil
	}

	fset := p.Fset
	start := fset.Position(rng.Pos()).Offset
	end := fset.Position(rng.End()).Offset
	bodyStart := fset.Position(rng.Body.Lbrace).Offset + 1
	bodyEnd := fset.Position(rng.Body.Rbrace).Offset
	if bodyEnd > len(src) || end > len(src) {
		return nil
	}
	mapText := string(src[fset.Position(rng.X.Pos()).Offset:fset.Position(rng.X.End()).Offset])
	bodyText := string(src[bodyStart:bodyEnd])

	keys := freshName("keys", fn)
	keyName := keyID.Name
	if keyName == "_" {
		keyName = freshName("key", fn)
	}
	indent := strings.Repeat("\t", fset.Position(rng.Pos()).Column-1)

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", keys, keyType, mapText)
	fmt.Fprintf(&b, "%sfor %s := range %s {\n", indent, keyName, mapText)
	fmt.Fprintf(&b, "%s\t%s = append(%s, %s)\n", indent, keys, keys, keyName)
	fmt.Fprintf(&b, "%s}\n", indent)
	fmt.Fprintf(&b, "%s%s(%s)\n", indent, sortFn, keys)
	fmt.Fprintf(&b, "%sfor _, %s := range %s {", indent, keyName, keys)
	if valID != nil && valID.Name != "_" && identUsed(p, rng.Body, valID) {
		fmt.Fprintf(&b, "\n%s\t%s := %s[%s]", indent, valID.Name, mapText, keyName)
	}
	b.WriteString(bodyText)
	b.WriteString("}")

	fix := &Fix{
		Message: "iterate the map's keys in sorted order",
		Edits: []TextEdit{{
			Filename: fset.Position(rng.Pos()).Filename,
			Start:    start,
			End:      end,
			NewText:  b.String(),
		}},
	}
	if imp := addImportEdit(p, fset, rng, "sort", src); imp != nil {
		fix.Edits = append(fix.Edits, *imp)
	}
	return fix
}

// pureExpr reports whether e is a side-effect-free expression safe to
// evaluate more than once: an identifier or a selector chain.
func pureExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return pureExpr(e.X)
	case *ast.ParenExpr:
		return pureExpr(e.X)
	}
	return false
}

// isLabeled reports whether the statement is the target of a label
// (rewriting it would re-attach the label to the key-collection loop).
func isLabeled(p *Package, stmt ast.Stmt) bool {
	for _, f := range p.Files {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if l, ok := n.(*ast.LabeledStmt); ok && l.Stmt == stmt {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// freshName returns base, extended with underscores until it collides
// with no identifier in the function.
func freshName(base string, fn funcUnit) string {
	used := make(map[string]bool)
	ast.Inspect(fn.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	name := base
	for used[name] {
		name += "_"
	}
	return name
}

// identUsed reports whether the declared identifier's object is used
// anywhere under root.
func identUsed(p *Package, root ast.Node, decl *ast.Ident) bool {
	obj := p.Info.Defs[decl]
	if obj == nil {
		return false
	}
	used := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// addImportEdit returns the edit inserting an import of path into the
// file containing node, or nil when already imported. The insertion
// keeps the first import group's alphabetical order.
func addImportEdit(p *Package, fset *token.FileSet, node ast.Node, path string, src []byte) *TextEdit {
	var file *ast.File
	for _, f := range p.Files {
		if f.Pos() <= node.Pos() && node.Pos() < f.End() {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	for _, imp := range file.Imports {
		if importPath(imp) == path {
			return nil
		}
	}
	quoted := `"` + path + `"`
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if !gd.Lparen.IsValid() {
			// Single-spec import: rewrite `import "x"` to a block.
			if len(gd.Specs) != 1 {
				return nil
			}
			spec := gd.Specs[0].(*ast.ImportSpec)
			old := string(src[fset.Position(spec.Pos()).Offset:fset.Position(spec.End()).Offset])
			lines := []string{old, quoted}
			if path < importPath(spec) {
				lines = []string{quoted, old}
			}
			return &TextEdit{
				Filename: fset.Position(gd.Pos()).Filename,
				Start:    fset.Position(gd.Pos()).Offset,
				End:      fset.Position(gd.End()).Offset,
				NewText:  "import (\n\t" + lines[0] + "\n\t" + lines[1] + "\n)",
			}
		}
		// Insert before the first path sorting after ours, else at the
		// end of the group.
		insertAt := fset.Position(gd.Rparen).Offset
		for _, s := range gd.Specs {
			spec := s.(*ast.ImportSpec)
			if importPath(spec) > path {
				insertAt = fset.Position(spec.Pos()).Offset
				return &TextEdit{
					Filename: fset.Position(gd.Pos()).Filename,
					Start:    insertAt,
					End:      insertAt,
					NewText:  quoted + "\n\t",
				}
			}
		}
		return &TextEdit{
			Filename: fset.Position(gd.Pos()).Filename,
			Start:    insertAt,
			End:      insertAt,
			NewText:  "\t" + quoted + "\n",
		}
	}
	return nil
}
