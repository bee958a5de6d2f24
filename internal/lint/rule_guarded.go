package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// GuardedFieldRule enforces documented mutex discipline. A struct
// field annotated
//
//	foo int // guarded by mu
//
// may only be accessed inside functions that also lock that mutex
// (a call to mu.Lock or mu.RLock somewhere in the same function
// body). The goroutine-per-rank MPI world, the goroutine-per-CPE
// mesh and the vclock barrier all share small amounts of state whose
// races the runtime detector can only catch probabilistically; this
// rule catches a forgotten lock on every run.
//
// The analysis is deliberately function-scoped: a function that
// accesses a guarded field while its *caller* holds the lock should
// either take the mutex itself, be restructured, or carry a
// //swlint:ignore guarded-field comment explaining the protocol.
type GuardedFieldRule struct{}

// ID implements Rule.
func (GuardedFieldRule) ID() string { return "guarded-field" }

// Doc implements Rule.
func (GuardedFieldRule) Doc() string {
	return "fields annotated 'guarded by <mu>' must only be accessed under that mutex"
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// Check implements Rule.
func (r GuardedFieldRule) Check(p *Package) []Finding {
	guarded := collectGuardedFields(p)
	if len(guarded) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		// funcStack tracks the innermost enclosing function body so an
		// access can be matched against that body's lock calls.
		var funcStack []ast.Node
		locks := make(map[ast.Node]map[string]bool)
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if body(n) == nil {
					return false // declared here, implemented in assembly
				}
				funcStack = append(funcStack, n)
				ast.Inspect(body(n), walk)
				funcStack = funcStack[:len(funcStack)-1]
				return false
			case *ast.SelectorExpr:
				sel, ok := p.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				mu, ok := guarded[sel.Obj().(*types.Var)]
				if !ok {
					return true
				}
				if len(funcStack) == 0 {
					return true // package-level initializer: single-threaded
				}
				enc := funcStack[len(funcStack)-1]
				if m, ok := locks[enc]; ok {
					if m[mu] {
						return true
					}
				} else {
					locks[enc] = lockCalls(body(enc))
					if locks[enc][mu] {
						return true
					}
				}
				out = append(out, Finding{
					RuleID: r.ID(),
					Pos:    p.Fset.Position(n.Sel.Pos()),
					Message: "field " + sel.Obj().Name() + " is guarded by " + mu +
						" but the enclosing function never locks it",
				})
				return true
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return out
}

// collectGuardedFields maps annotated field objects to their mutex
// names.
func collectGuardedFields(p *Package) map[*types.Var]string {
	guarded := make(map[*types.Var]string)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						guarded[v] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardAnnotation extracts the mutex name from a field's doc or
// trailing comment.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// body returns the body of a FuncDecl or FuncLit, or nil for a
// declaration without one.
func body(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body == nil {
			return nil
		}
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return n
}

// lockCalls collects the mutex names locked anywhere in a function
// body: every call of the form <chain>.<mu>.Lock() or <mu>.Lock()
// (and the RLock variants) contributes <mu>.
func lockCalls(root ast.Node) map[string]bool {
	found := make(map[string]bool)
	if root == nil {
		return found
	}
	ast.Inspect(root, func(n ast.Node) bool {
		// Nested function literals take their own locks; do not credit
		// them to the enclosing function.
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.Ident:
			found[x.Name] = true
		case *ast.SelectorExpr:
			found[x.Sel.Name] = true
		}
		return true
	})
	return found
}
