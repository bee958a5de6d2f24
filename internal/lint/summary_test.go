package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// testSummarizer builds a summarizer against the real module, as
// AllRules would.
func testSummarizer(t *testing.T) *Summarizer {
	t.Helper()
	_, cfg := fixtureLoader(t)
	return NewSummarizer(cfg)
}

// TestInterprocCollectives pins the helper-wrapped collectives and
// helper-derived rank conditions in the interproc fixture, each caught
// with the call chain in the message, while BothArms — a direct Bcast
// whose partner hides in the helper on the other arm — stays clean.
func TestInterprocCollectives(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "interproc", cfg.ModulePath+"/internal/core")

	rule := CollectiveMatchRule{CommPackage: cfg.CommPackage, Sums: testSummarizer(t)}
	got := rule.Check(p)
	checkFindings(t, got, []expect{
		{"collective-match", "interproc.go", 40, "no matching Bcast"},
		{"collective-match", "interproc.go", 48, "no matching AllReduceSum"},
		{"collective-match", "interproc.go", 57, "no matching Barrier"},
		{"collective-match", "interproc.go", 77, "no matching Bcast"},
	})
	wantChains := map[int]string{
		40: "reached via core.broadcast → Bcast",
		48: "reached via core.sumAll → core.reduceHelper → AllReduceSum",
	}
	for _, f := range got {
		if chain, ok := wantChains[f.Pos.Line]; ok && !strings.Contains(f.Message, chain) {
			t.Errorf("finding at line %d lacks call chain %q:\n%s", f.Pos.Line, chain, f.Message)
		}
	}
}

// TestInterprocCallSiteSuppression proves a suppression at the call
// site — not the callee — silences a summary-propagated finding, and
// is counted as used by the suppression machinery.
func TestInterprocCallSiteSuppression(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "interproc", cfg.ModulePath+"/internal/core")
	rule := CollectiveMatchRule{CommPackage: cfg.CommPackage, Sums: testSummarizer(t)}

	got := checkPackage([]Rule{rule}, p)
	for _, f := range got {
		if f.Pos.Line == 77 {
			t.Errorf("call-site suppression did not silence the summary-propagated finding: %s", f)
		}
		if f.RuleID == UnusedSuppressID {
			t.Errorf("suppression reported unused: %s", f)
		}
	}
}

// TestInterprocMapOrderAndGoroutine covers the other two rules that
// see through helpers: an impure helper under a map range and under a
// `go` statement, both only visible through summaries.
func TestInterprocMapOrderAndGoroutine(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "interproc", cfg.ModulePath+"/internal/core")
	sums := testSummarizer(t)

	mo := MapOrderRule{SimPackages: cfg.SimPackages, VClockPackage: cfg.VClockPackage, CommPackage: cfg.CommPackage, Sums: sums}
	checkFindings(t, mo.Check(p), []expect{
		{"map-order", "interproc.go", 85, "call to core.bump which writes package variable hits"},
	})

	gp := GoroutinePurityRule{SimPackages: cfg.SimPackages, Sums: sums}
	checkFindings(t, gp.Check(p), []expect{
		{"goroutine-purity", "interproc.go", 93, "writes package variable hits"},
	})
}

// TestLDMProvenance covers both sides of the provenance rule:
// hand-rolled sizes are flagged, capacity-derived sizes and
// Check*-gated functions are blessed — including through helpers
// (HelperChunk, HelperGated), where the summaries carry the provenance
// and the gate.
func TestLDMProvenance(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "ldmprov", cfg.ModulePath+"/internal/fixture/ldmprov")

	rule := LDMProvenanceRule{LDMPackage: cfg.LDMPackage, DMAPackage: cfg.DMAPackage, Exempt: cfg.CapacityExempt, Sums: testSummarizer(t)}
	checkFindings(t, rule.Check(p), []expect{
		{"ldm-provenance", "ldmprov.go", 26, "Engine.Charge"},
		{"ldm-provenance", "ldmprov.go", 27, "Allocator.AllocFloats"},
	})

	// The rule stays out of the capacity and machine packages.
	exempt := loadFixture(t, "ldmprov", cfg.ModulePath+"/internal/machine")
	if got := rule.Check(exempt); len(got) != 0 {
		t.Errorf("exempt package still flagged: %v", got)
	}
}

// TestHotPathAlloc covers the opt-in allocation lint: every allocation
// shape inside a marked loop is flagged (make, helper allocation with
// chain, growing append with a mechanical fix, map traffic, interface
// boxing) while preallocated appends and unmarked loops stay silent.
func TestHotPathAlloc(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "hotalloc", cfg.ModulePath+"/internal/fixture/hotalloc")
	rule := HotPathAllocRule{Sums: testSummarizer(t)}

	got := rule.Check(p)
	checkFindings(t, got, []expect{
		{"hot-path-alloc", "hotalloc.go", 20, "heap allocation (make)"},
		{"hot-path-alloc", "hotalloc.go", 31, "call to hotalloc.scratch allocates with make"},
		{"hot-path-alloc", "hotalloc.go", 42, "append to out may grow"},
		{"hot-path-alloc", "hotalloc.go", 52, "map write"},
		{"hot-path-alloc", "hotalloc.go", 61, "boxes it on the heap"},
	})

	for _, f := range got {
		if f.Pos.Line != 42 {
			continue
		}
		if f.Fix == nil {
			t.Fatalf("growing append carries no fix: %s", f)
		}
		if want := "out := make([]float64, 0, len(xs))"; len(f.Fix.Edits) != 1 || f.Fix.Edits[0].NewText != want {
			t.Errorf("fix = %+v, want single edit to %q", f.Fix.Edits, want)
		}
	}
}

// TestSummaryAcrossPackages resolves a callee in another module
// package: internal/sw26010's call to ldm.Level1StreamChunk finds the
// summary the loader's internal/ldm Package yields, with the capacity
// provenance of its return value.
func TestSummaryAcrossPackages(t *testing.T) {
	l, cfg := fixtureLoader(t)
	p, err := l.LoadDir(filepath.Join(cfg.ModuleRoot, "internal", "sw26010"), "")
	if err != nil {
		t.Fatal(err)
	}
	sums := testSummarizer(t)
	var found bool
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.FullName() != cfg.LDMPackage+".Level1StreamChunk" {
				return true
			}
			found = true
			if sum := sums.ForCall(p, call); sum == nil || !sum.LDMReturn {
				t.Errorf("%s: Level1StreamChunk summary = %+v, want LDMReturn", p.Fset.Position(call.Pos()), sum)
			}
			return true
		})
	}
	if !found {
		t.Fatal("internal/sw26010 no longer calls ldm.Level1StreamChunk; pick another cross-package callee")
	}
}
