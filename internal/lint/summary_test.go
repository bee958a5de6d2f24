package lint

import (
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

// TestSummaryDiskCache proves summaries survive the disk round trip
// and that the key rolls when a (transitive) callee changes.
func TestSummaryDiskCache(t *testing.T) {
	_, cfg := fixtureLoader(t)
	dir := t.TempDir()

	s1 := NewSummarizer(cfg)
	s1.SetCacheDir(dir)
	table := s1.byPath(cfg.ModulePath + "/internal/ldm")
	if len(table) == 0 {
		t.Fatal("no summaries for internal/ldm")
	}
	key := cfg.ModulePath + "/internal/ldm.Level1StreamChunk"
	if sum := table[key]; sum == nil || !sum.LDMReturn {
		t.Fatalf("Level1StreamChunk summary = %+v, want LDMReturn", table[key])
	}

	entries, err := filepath.Glob(filepath.Join(dir, "sum-*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no summary cache entries written (err=%v)", err)
	}

	// A second summarizer sharing the cache dir serves from disk: the
	// loaded tables match the computed ones.
	s2 := NewSummarizer(cfg)
	s2.SetCacheDir(dir)
	table2 := s2.byPath(cfg.ModulePath + "/internal/ldm")
	if sum := table2[key]; sum == nil || !sum.LDMReturn {
		t.Fatalf("cache-served summary = %+v, want LDMReturn", table2[key])
	}

	// The disk key covers the transitive closure: internal/ldm imports
	// internal/machine, so the machine package's sources are part of
	// the key material.
	k1, err := s1.diskKey(filepath.Join(cfg.ModuleRoot, "internal", "ldm"))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := s1.hasher.closure(filepath.Join(cfg.ModuleRoot, "internal", "ldm"))
	if err != nil {
		t.Fatal(err)
	}
	sawMachine := false
	for _, l := range lines {
		if strings.HasPrefix(l, "internal/machine/") {
			sawMachine = true
		}
	}
	if !sawMachine {
		t.Errorf("closure for internal/ldm does not include internal/machine files — callee edits would not invalidate callers")
	}
	if k2, _ := s1.diskKey(filepath.Join(cfg.ModuleRoot, "internal", "machine")); k1 == k2 {
		t.Errorf("distinct packages share a summary cache key")
	}
}
