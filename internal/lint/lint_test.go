package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests: every LoadDir call reuses
// the same stdlib type-check cache, so the suite pays the source
// importer's cost once instead of once per subtest.
var (
	loaderOnce sync.Once
	loaderErr  error
	testCfg    Config
	testLoader *Loader
)

func fixtureLoader(t *testing.T) (*Loader, Config) {
	t.Helper()
	loaderOnce.Do(func() {
		testCfg, loaderErr = DefaultConfig(".")
		if loaderErr != nil {
			return
		}
		testLoader = NewLoader(testCfg.ModuleRoot, testCfg.ModulePath)
	})
	if loaderErr != nil {
		t.Fatalf("DefaultConfig: %v", loaderErr)
	}
	return testLoader, testCfg
}

// loadFixture type-checks one testdata tree, posing as importPath so
// path-scoped rules see the package where the test wants it.
func loadFixture(t *testing.T, fixture, importPath string) *Package {
	t.Helper()
	l, _ := fixtureLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "src", fixture), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s as %s: %v", fixture, importPath, err)
	}
	return p
}

// expect is one finding the fixture is seeded with: the rule, the
// fixture file's base name, the 1-based line and a fragment of the
// message.
type expect struct {
	rule    string
	file    string
	line    int
	message string
}

func checkFindings(t *testing.T, got []Finding, want []expect) {
	t.Helper()
	sortFindings(got)
	for i, f := range got {
		if i < len(want) {
			w := want[i]
			if f.RuleID != w.rule || filepath.Base(f.Pos.Filename) != w.file || f.Pos.Line != w.line {
				t.Errorf("finding %d = %s:%d %s, want %s:%d %s",
					i, filepath.Base(f.Pos.Filename), f.Pos.Line, f.RuleID, w.file, w.line, w.rule)
			}
			if !strings.Contains(f.Message, w.message) {
				t.Errorf("finding %d message %q does not contain %q", i, f.Message, w.message)
			}
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i := len(got); i < len(want); i++ {
		t.Errorf("missing finding: %+v", want[i])
	}
}

func TestRuleFixtures(t *testing.T) {
	_, cfg := fixtureLoader(t)
	tests := []struct {
		name    string
		fixture string
		as      string // import path the fixture poses as
		rule    Rule
		want    []expect
	}{
		{
			name:    "no-wallclock flags clock reads and rand imports in sim packages",
			fixture: "wallclock",
			as:      cfg.ModulePath + "/internal/core",
			rule:    NoWallclockRule{SimPackages: cfg.SimPackages},
			want: []expect{
				{"no-wallclock", "wallclock.go", 7, "import of math/rand"},
				{"no-wallclock", "wallclock.go", 14, "time.Now"},
				{"no-wallclock", "wallclock.go", 16, "time.Since"},
			},
		},
		{
			name:    "no-wallclock is silent outside the simulation packages",
			fixture: "wallclock",
			as:      cfg.ModulePath + "/internal/report",
			rule:    NoWallclockRule{SimPackages: cfg.SimPackages},
			want:    nil,
		},
		{
			name:    "float-eq flags exact comparisons outside tolerant helpers",
			fixture: "floateq",
			as:      cfg.ModulePath + "/internal/fixture/floateq",
			rule:    FloatEqRule{},
			want: []expect{
				{"float-eq", "floateq.go", 8, "floating-point == comparison"},
				{"float-eq", "floateq.go", 13, "floating-point != comparison"},
			},
		},
		{
			name:    "guarded-field flags lock-free access, including goroutine literals",
			fixture: "guarded",
			as:      cfg.ModulePath + "/internal/fixture/guarded",
			rule:    GuardedFieldRule{},
			want: []expect{
				{"guarded-field", "guarded.go", 23, "guarded by mu"},
				{"guarded-field", "guarded.go", 32, "guarded by mu"},
			},
		},
		{
			name:    "err-wrap flags %v on error operands, including indexed verbs",
			fixture: "errwrap",
			as:      cfg.ModulePath + "/internal/fixture/errwrap",
			rule:    ErrWrapRule{},
			want: []expect{
				{"err-wrap", "errwrap.go", 15, "use %w"},
				{"err-wrap", "errwrap.go", 26, "use %w"},
			},
		},
		{
			name:    "err-wrap is scoped to internal packages",
			fixture: "errwrap",
			as:      cfg.ModulePath + "/pkg/errwrap",
			rule:    ErrWrapRule{},
			want:    nil,
		},
		{
			name:    "ldm-capacity flags raw capacity use without a central check",
			fixture: "ldmcap",
			as:      cfg.ModulePath + "/internal/fixture/ldmcap",
			rule:    LDMCapacityRule{LDMPackage: cfg.LDMPackage, Exempt: cfg.CapacityExempt},
			want: []expect{
				{"ldm-capacity", "ldmcap.go", 15, "HandRolled uses raw LDM capacity"},
				{"ldm-capacity", "ldmcap.go", 32, "Alloc uses raw LDM capacity"},
			},
		},
		{
			name:    "ldm-capacity exempts the machine-description package",
			fixture: "ldmcap",
			as:      cfg.ModulePath + "/internal/machine",
			rule:    LDMCapacityRule{LDMPackage: cfg.LDMPackage, Exempt: cfg.CapacityExempt},
			want:    nil,
		},
		{
			name:    "map-order flags order-sensitive effects and blesses sorted collection",
			fixture: "maporder",
			as:      cfg.ModulePath + "/internal/core",
			rule:    MapOrderRule{SimPackages: cfg.SimPackages, VClockPackage: cfg.VClockPackage, CommPackage: cfg.CommPackage},
			want: []expect{
				{"map-order", "maporder.go", 12, "package variable counts"},
				{"map-order", "maporder.go", 20, "append to slice out"},
				{"map-order", "maporder.go", 40, "append to slice out"},
				{"map-order", "maporder.go", 65, "channel send"},
				{"map-order", "maporder.go", 86, "struct field total"},
				// CondSort: the sort sits on only one path out of the
				// branch; the v3 positional check ("a sort appears later
				// in the source") blessed it, the CFG check does not.
				// SortBothArms, sorting on every path, stays blessed.
				{"map-order", "maporder.go", 96, "append to slice out"},
			},
		},
		{
			name:    "map-order is silent outside the simulation packages",
			fixture: "maporder",
			as:      cfg.ModulePath + "/internal/report",
			rule:    MapOrderRule{SimPackages: cfg.SimPackages, VClockPackage: cfg.VClockPackage, CommPackage: cfg.CommPackage},
			want:    nil,
		},
		{
			name:    "collective-match flags lone rank-conditional collectives",
			fixture: "collective",
			as:      cfg.ModulePath + "/internal/fixture/collective",
			rule:    CollectiveMatchRule{CommPackage: cfg.CommPackage},
			want: []expect{
				{"collective-match", "collective.go", 13, "no matching Bcast"},
				{"collective-match", "collective.go", 45, "no matching Barrier"},
				{"collective-match", "collective.go", 53, "no matching AllReduceSum"},
				{"collective-match", "collective.go", 85, "no matching AllReduceRows"},
			},
		},
		{
			name:    "goroutine-purity flags order-sensitive fan-in, blesses scatter and guarded reduce",
			fixture: "goroutine",
			as:      cfg.ModulePath + "/internal/core",
			rule:    GoroutinePurityRule{SimPackages: cfg.SimPackages},
			want: []expect{
				{"goroutine-purity", "goroutine.go", 19, "writes shared variable shared"},
				{"goroutine-purity", "goroutine.go", 51, "select chooses pseudo-randomly"},
				{"goroutine-purity", "goroutine.go", 64, "arrival order"},
				{"goroutine-purity", "goroutine.go", 84, "arrival order"},
				{"goroutine-purity", "goroutine.go", 120, "unguarded shared field n"},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := loadFixture(t, tt.fixture, tt.as)
			checkFindings(t, tt.rule.Check(p), tt.want)
		})
	}
}

// TestSuppressions proves the ignore machinery end to end: the raw
// rule sees every seeded violation; CheckPackage filters exactly the
// ones carrying a well-formed matching //swlint:ignore — trailing,
// preceding and comma-list forms — while wrong-rule, malformed and
// out-of-range comments suppress nothing; and the machinery's own
// bad-suppress/unused-suppress findings surface, scoped to the rules
// that actually ran.
func TestSuppressions(t *testing.T) {
	_, cfg := fixtureLoader(t)
	p := loadFixture(t, "suppress", cfg.ModulePath+"/internal/fixture/suppress")

	raw := FloatEqRule{}.Check(p)
	checkFindings(t, raw, []expect{
		{"float-eq", "suppress.go", 8, "floating-point"},
		{"float-eq", "suppress.go", 14, "floating-point"},
		{"float-eq", "suppress.go", 20, "floating-point"},
		{"float-eq", "suppress.go", 26, "floating-point"},
		{"float-eq", "suppress.go", 33, "floating-point"},
		{"float-eq", "suppress.go", 41, "floating-point"},
	})

	filtered := CheckPackage([]Rule{FloatEqRule{}}, p)
	checkFindings(t, filtered, []expect{
		{"float-eq", "suppress.go", 26, "floating-point"},    // wrong rule named
		{"bad-suppress", "suppress.go", 32, "malformed"},     // legacy reason-free form
		{"float-eq", "suppress.go", 33, "floating-point"},    // malformed comment suppresses nothing
		{"unused-suppress", "suppress.go", 39, "matched no"}, // out of range, so stale
		{"float-eq", "suppress.go", 41, "floating-point"},    // comment out of range
	})

	// With err-wrap in the run, the err-wrap half of the comma-list
	// comment is also reported stale; no-wallclock stays exempt because
	// it did not run.
	both := CheckPackage([]Rule{FloatEqRule{}, ErrWrapRule{}}, p)
	checkFindings(t, both, []expect{
		{"unused-suppress", "suppress.go", 19, "err-wrap"},
		{"float-eq", "suppress.go", 26, "floating-point"},
		{"bad-suppress", "suppress.go", 32, "malformed"},
		{"float-eq", "suppress.go", 33, "floating-point"},
		{"unused-suppress", "suppress.go", 39, "matched no"},
		{"float-eq", "suppress.go", 41, "floating-point"},
	})
}

func TestFindingString(t *testing.T) {
	f := Finding{RuleID: "float-eq", Message: "bad compare"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 7
	f.Pos.Column = 3
	if got, want := f.String(), "a/b.go:7:3: float-eq: bad compare"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDefaultConfig(t *testing.T) {
	_, cfg := fixtureLoader(t)
	if cfg.ModulePath != "repro" {
		t.Errorf("ModulePath = %q, want repro", cfg.ModulePath)
	}
	if cfg.LDMPackage != "repro/internal/ldm" {
		t.Errorf("LDMPackage = %q", cfg.LDMPackage)
	}
	for _, sim := range []string{"repro/internal/core", "repro/internal/vclock", "repro/internal/mpi"} {
		if !hasSuffixPath(sim, cfg.SimPackages) {
			t.Errorf("SimPackages missing %s", sim)
		}
	}
	if len(AllRules(cfg)) != 15 {
		t.Errorf("AllRules returned %d rules, want 15", len(AllRules(cfg)))
	}
	if cfg.DMAPackage != "repro/internal/dma" {
		t.Errorf("DMAPackage = %q", cfg.DMAPackage)
	}
	if cfg.SchedPackage != "repro/internal/sched" {
		t.Errorf("SchedPackage = %q", cfg.SchedPackage)
	}
}
