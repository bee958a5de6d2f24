package lint

import (
	"os"
	"strings"
	"testing"
)

// TestLockAcrossPark pins the lock-set rule against the fixture: a
// direct park under the mutex, a park reached only through a helper's
// summary and a deferred unlock across a collective are flagged; the
// unlock-park-relock protocol (the shape of internal/mpi's waits),
// unlock-before-collective, Wake under the lock and the lock-free
// helper call are blessed.
func TestLockAcrossPark(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "lockpark", cfg.ModulePath+"/internal/fixture/lockpark")
	rule := LockAcrossParkRule{
		CommPackage:  cfg.CommPackage,
		SchedPackage: cfg.SchedPackage,
		Sums:         testSummarizer(t),
	}
	checkFindings(t, rule.Check(p), []expect{
		{"lock-across-park", "lockpark.go", 24, "held across Task.Park"},
		{"lock-across-park", "lockpark.go", 39, "parkOnce"},
		{"lock-across-park", "lockpark.go", 50, "held across Comm.Barrier"},
	})
}

// TestParkRecheck pins the re-check rule: an if-guarded park, a bare
// park in a helper, a summary-propagated obligation at a loop-free
// call site and a lexical loop with no back edge through the park are
// flagged; re-check loops — direct, around the helper call, or inside
// the helper itself — discharge the obligation. The two sole-statement
// if guards carry the mechanical if→for fix; the other findings do
// not.
func TestParkRecheck(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "parkrecheck", cfg.ModulePath+"/internal/fixture/parkrecheck")
	rule := ParkRecheckRule{SchedPackage: cfg.SchedPackage, Sums: testSummarizer(t)}
	got := rule.Check(p)
	checkFindings(t, got, []expect{
		{"park-recheck", "parkrecheck.go", 19, "not re-checked"},
		{"park-recheck", "parkrecheck.go", 26, "not re-checked"},
		{"park-recheck", "parkrecheck.go", 33, "parkBare"},
		{"park-recheck", "parkrecheck.go", 45, "not re-checked"},
	})

	fixable := map[int]bool{19: true, 33: true}
	var fixed *Finding
	for i := range got {
		f := &got[i]
		if fixable[f.Pos.Line] {
			if f.Fix == nil {
				t.Errorf("finding at line %d should carry the if→for fix", f.Pos.Line)
				continue
			}
			e := f.Fix.Edits[0]
			if e.NewText != "for" || e.End-e.Start != len("if") {
				t.Errorf("finding at line %d has edit %+v, want if→for keyword swap", f.Pos.Line, e)
			}
			if f.Pos.Line == 19 {
				fixed = f
			}
		} else if f.Fix != nil {
			t.Errorf("finding at line %d should not be mechanically fixable, got fix %q", f.Pos.Line, f.Fix.Message)
		}
	}

	// Apply the IfGuard fix in memory and confirm the rewrite is the
	// blessed loop: the guard survives, only the keyword changes.
	if fixed == nil {
		t.Fatal("no fixable finding at line 19")
	}
	src, err := os.ReadFile(fixed.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	e := fixed.Fix.Edits[0]
	patched := string(src[:e.Start]) + e.NewText + string(src[e.End:])
	if got, want := strings.Count(patched, "for !w.ready {"), strings.Count(string(src), "for !w.ready {")+1; got != want {
		t.Errorf("patched source has %d `for !w.ready` loops, want %d", got, want)
	}
	if strings.Count(patched, "if !w.ready {") != strings.Count(string(src), "if !w.ready {")-1 {
		t.Error("patched source did not consume the if guard")
	}
}

// TestCollectiveOrder pins collective-match's order check on shapes
// where no collective is missing: three functions reorder the same
// collectives across rank arms and are the fixture's only findings.
// The blessed shapes stay silent: identical order inline and through a
// helper (error guards are straight-line, not forks), mirrored
// data-dependent forks, and a p2p recv loop against single sends.
func TestCollectiveOrder(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "collorder", cfg.ModulePath+"/internal/fixture/collorder")

	rule := CollectiveMatchRule{CommPackage: cfg.CommPackage, Sums: testSummarizer(t)}
	checkFindings(t, rule.Check(p), []expect{
		{"collective-match", "collorder.go", 14, "rank-divergent collective order"},
		{"collective-match", "collorder.go", 31, "rank-divergent collective order"},
		{"collective-match", "collorder.go", 50, "rank-divergent collective order"},
	})
}
