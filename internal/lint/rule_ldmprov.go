package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LDMProvenanceRule keeps the paper's capacity constraints in one
// place. Which problem shapes fit which partition level is governed by
// the closed-form feasibility conditions of Section III (C1..C″3,
// d(1+2k)+k ≤ m·LDM and friends), implemented once in internal/ldm.
// Outside that package the rule flags two kinds of hand-rolled
// capacity arithmetic:
//
//   - raw capacity: a function that allocates LDM buffers
//     (ldm.NewAllocator) or reads the raw capacity
//     (Spec.LDMBytesPerCPE) is re-deriving the conditions by hand;
//   - sizes: every length feeding a DMA transfer (Engine.Charge's
//     element count, the buffers of Engine.Get/Put) or an LDM buffer
//     (Allocator.Alloc/AllocFloats) must derive — through local flow,
//     make() sizing and helper summaries — from an internal/ldm
//     capacity function (Level1StreamChunk, ResidentBatch, ...) or
//     constant. A size invented at the call site ("4096 floats ought
//     to fit") type-checks and silently violates constraint C1 the day
//     k or d grows.
//
// One gate blesses both: a function gated by an ldm.Check* feasibility
// call, directly or through a helper whose summary carries the check,
// may read the capacity and size its buffers from the checked k and d.
// The rule is interprocedural on both sides: a helper returning
// ldm.Level1StreamChunk(...) propagates provenance to its callers, and
// a helper that performs the Check* gates its callers.
type LDMProvenanceRule struct {
	// LDMPackage is the central capacity package; DMAPackage hosts the
	// transfer engine, whose own calls are not sinks.
	LDMPackage string
	DMAPackage string
	// Exempt packages may use raw capacity and size buffers freely: the
	// capacity package itself and the machine-description package that
	// defines the field.
	Exempt []string
	// Sums supplies the helper summaries.
	Sums *Summarizer
}

// ID implements Rule.
func (LDMProvenanceRule) ID() string { return "ldm-provenance" }

// Doc implements Rule.
func (LDMProvenanceRule) Doc() string {
	return "LDM allocation, raw capacity reads and DMA/LDM buffer sizes must derive from the internal/ldm capacity model or sit behind an ldm.Check* gate"
}

// capacityField is the raw per-CPE scratchpad size on the machine
// spec; reading it outside the exempt packages is hand-rolled
// capacity arithmetic.
const capacityField = "LDMBytesPerCPE"

// Check implements Rule.
func (r LDMProvenanceRule) Check(p *Package) []Finding {
	if p.Path == r.LDMPackage || hasSuffixPath(p.Path, r.Exempt) {
		return nil
	}
	oracle := r.Sums.LDMTaint(p)
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			raw, sinks := r.uses(p, fd)
			if (raw == nil && len(sinks) == 0) || r.gated(p, fd) {
				continue
			}
			if raw != nil {
				out = append(out, Finding{
					RuleID: r.ID(),
					Pos:    p.Fset.Position(raw.Pos()),
					Message: "function " + fd.Name.Name + " uses raw LDM capacity without a central " +
						"feasibility check; call ldm.Check* first or move the arithmetic into " + r.LDMPackage,
				})
			}
			// The whole declaration, literals included, is one unit: a
			// Check* gate at the top blesses sizes in the worker
			// literals it guards (the sw26010 mesh.Run shape).
			g := newFlowGraph(p, funcUnit{node: fd, body: fd.Body, doc: fd.Doc})
			for _, sink := range sinks {
				if g.derivesVia(sink.arg, func(e ast.Expr) bool { return ldmSource(p, r.LDMPackage, e) }, oracle) {
					continue
				}
				out = append(out, Finding{
					RuleID: r.ID(),
					Pos:    p.Fset.Position(sink.arg.Pos()),
					Message: "size feeding " + sink.op + " does not derive from the " + r.LDMPackage +
						" capacity model; compute it with an ldm capacity function or gate this path with an ldm.Check* feasibility call",
				})
			}
		}
	}
	return out
}

// provSink is one size-carrying argument of a DMA or allocator call.
type provSink struct {
	arg ast.Expr
	op  string
}

// uses returns the declaration's first raw capacity use — an
// ldm.NewAllocator call or a Spec.LDMBytesPerCPE read — and the
// size-carrying arguments of its DMA-engine and LDM-allocator calls.
func (r LDMProvenanceRule) uses(p *Package, fd *ast.FuncDecl) (raw ast.Node, sinks []provSink) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := p.Info.Selections[n]; ok && raw == nil && n.Sel.Name == capacityField && sel.Kind() == types.FieldVal {
				raw = n
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p, n); raw == nil && fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == r.LDMPackage && fn.Name() == "NewAllocator" {
				raw = n
			}
			if p.Path != r.DMAPackage {
				sinks = append(sinks, r.sinkArgs(p, n)...)
			}
		}
		return true
	})
	return raw, sinks
}

// sinkArgs returns the size-carrying arguments of one DMA-engine or
// LDM-allocator call.
func (r LDMProvenanceRule) sinkArgs(p *Package, call *ast.CallExpr) []provSink {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	var op string
	var idx []int
	switch {
	case receiverNamed(p, call, r.DMAPackage, "Engine"):
		op = "Engine." + name
		switch name {
		case "Charge":
			idx = []int{1}
		case "Get", "Put":
			idx = []int{1, 2}
		}
	case receiverNamed(p, call, r.LDMPackage, "Allocator"):
		op = "Allocator." + name
		if name == "Alloc" || name == "AllocFloats" {
			idx = []int{1}
		}
	}
	var out []provSink
	for _, i := range idx {
		if i < len(call.Args) {
			out = append(out, provSink{arg: call.Args[i], op: op})
		}
	}
	return out
}

// gated reports whether the declaration calls an ldm.Check*
// feasibility check, directly or through a helper.
func (r LDMProvenanceRule) gated(p *Package, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == r.LDMPackage && strings.HasPrefix(fn.Name(), "Check") {
			found = true
			return false
		}
		if sum := r.Sums.ForCall(p, call); sum != nil && sum.ChecksLDM {
			found = true
			return false
		}
		return true
	})
	return found
}
