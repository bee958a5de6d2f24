// Package lint implements swlint, the project's static-analysis pass.
//
// The simulator's correctness rests on invariants the Go compiler
// cannot see: virtual-clock determinism (no wall-clock or global
// randomness inside simulation packages), the paper's LDM capacity
// constraints (d(1+2k)+k ≤ m·LDM and friends, which must be checked
// centrally rather than re-derived by hand at every allocation site),
// tolerance-aware floating-point comparisons, mutex discipline on the
// shared state of the goroutine-per-unit substrates, and error
// wrapping that keeps ldm.ConstraintError and friends inspectable
// through errors.As. Each rule in this package mechanically enforces
// one of those invariants; docs/STATIC_ANALYSIS.md ties every rule to
// the paper section it protects.
//
// Beyond the per-file syntactic rules, the package carries a
// lightweight function-level dataflow engine (dataflow.go), a
// call-graph-driven interprocedural summary layer (summary.go) and
// per-function control-flow graphs (cfg.go). Bottom-up per-function
// summaries record transitively invoked collectives, rank and
// LDM-capacity taint through parameters and returns, package-variable
// writes, blocking points and allocation behavior, and every semantic
// rule consults them, so findings reach through helper calls with the
// call chain in the message. On top sits the tooling layer of a
// real analyzer: SARIF 2.1.0 export (sarif.go), a checked-in findings
// baseline (baseline.go), mechanical autofixes (fix.go) and a
// content-hash keyed result cache with parallel per-package analysis
// (cache.go); function summaries join the same on-disk cache, keyed so
// a callee edit invalidates its callers.
//
// The package is stdlib-only (go/parser + go/types with a source
// importer); go.mod stays dependency-free. Rules are unit-testable
// against fixture trees under testdata/, and every finding can be
// suppressed at the offending line with:
//
//	//swlint:ignore <rule>[,<rule>...] -- <reason>
//
// either on the same line or on the line directly above. The rule list
// and reason are mandatory; malformed and stale suppressions are
// themselves findings (bad-suppress, unused-suppress).
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position. A finding may
// carry a mechanical Fix, applied only under the CLI's -fix flag.
type Finding struct {
	RuleID  string
	Pos     token.Position
	Message string
	Fix     *Fix
}

// String renders the finding in the conventional file:line:col form
// that editors and CI annotators understand.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.RuleID, f.Message)
}

// Rule is one project-specific check, run per package.
type Rule interface {
	// ID is the stable identifier used in output and in
	// //swlint:ignore comments.
	ID() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
	// Check inspects one type-checked package and reports violations.
	Check(p *Package) []Finding
}

// Config controls which module is analyzed and how the rules are
// parameterized.
type Config struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's import path (the `module` line of
	// go.mod). Filled from go.mod by DefaultConfig.
	ModulePath string
	// SimPackages lists the import paths whose virtual-time
	// determinism must not be broken by wall clocks or global
	// randomness (rule no-wallclock).
	SimPackages []string
	// LDMPackage is the import path of the central capacity-check
	// package; CapacityExempt packages may touch raw LDM capacity
	// without routing through it (rule ldm-provenance).
	LDMPackage     string
	CapacityExempt []string
	// CommPackage and VClockPackage locate the communicator and
	// virtual-clock types for the dataflow rules (collective-match,
	// map-order, lock-across-park).
	CommPackage   string
	VClockPackage string
	// DMAPackage hosts the transfer engine whose size arguments the
	// ldm-provenance rule checks.
	DMAPackage string
	// SchedPackage hosts the discrete-event scheduler whose Task.Park
	// protocol the lock-across-park and park-recheck rules enforce.
	SchedPackage string
}

// simPackageSuffixes is the default rule no-wallclock scope: the
// packages that together form the simulated machine. Everything that
// advances or reads time in these packages must do so through
// internal/vclock.
var simPackageSuffixes = []string{
	"internal/core",
	"internal/sw26010",
	"internal/mpi",
	"internal/regcomm",
	"internal/vclock",
	"internal/dma",
	"internal/netmodel",
	"internal/fault",
	"internal/obs",
	"internal/fattree",
	"internal/stream",
	"internal/sched",
}

// DefaultConfig locates go.mod at or above dir and returns the
// standard configuration for this repository's invariants.
func DefaultConfig(dir string) (Config, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		ModuleRoot:    root,
		ModulePath:    module,
		LDMPackage:    module + "/internal/ldm",
		CommPackage:   module + "/internal/mpi",
		VClockPackage: module + "/internal/vclock",
		DMAPackage:    module + "/internal/dma",
		SchedPackage:  module + "/internal/sched",
		CapacityExempt: []string{
			module + "/internal/ldm",
			module + "/internal/machine",
		},
	}
	for _, s := range simPackageSuffixes {
		cfg.SimPackages = append(cfg.SimPackages, module+"/"+s)
	}
	return cfg, nil
}

// AllRules returns the full rule set parameterized by cfg: the four
// syntactic rules, the seven semantic rules backed by a shared
// interprocedural summarizer and the CFG layer, and the two
// pseudo-rules the suppression machinery reports through.
func AllRules(cfg Config) []Rule {
	return allRules(cfg, NewSummarizer(cfg))
}

// allRules builds the rule set around one shared Summarizer, so the
// driver can wire its disk cache in before the rules are constructed.
func allRules(cfg Config, sums *Summarizer) []Rule {
	return []Rule{
		NoWallclockRule{SimPackages: cfg.SimPackages},
		FloatEqRule{},
		GuardedFieldRule{},
		ErrWrapRule{},
		LDMProvenanceRule{LDMPackage: cfg.LDMPackage, DMAPackage: cfg.DMAPackage, Exempt: cfg.CapacityExempt, Sums: sums},
		MapOrderRule{SimPackages: cfg.SimPackages, VClockPackage: cfg.VClockPackage, CommPackage: cfg.CommPackage, Sums: sums},
		CollectiveMatchRule{CommPackage: cfg.CommPackage, Sums: sums},
		GoroutinePurityRule{SimPackages: cfg.SimPackages, Sums: sums},
		HotPathAllocRule{Sums: sums},
		LockAcrossParkRule{CommPackage: cfg.CommPackage, SchedPackage: cfg.SchedPackage, Sums: sums},
		ParkRecheckRule{SchedPackage: cfg.SchedPackage, Sums: sums},
		metaRule{id: BadSuppressID, doc: "suppressions must name catalogued rules and carry a reason: //swlint:ignore <rule> -- <reason>"},
		metaRule{id: UnusedSuppressID, doc: "suppressions that match no finding are stale and must be deleted"},
	}
}

// metaRule is a pseudo-rule: it produces no findings of its own (the
// suppression machinery emits them) but gives the ID a place in the
// rule listing and the SARIF rule table. Meta findings cannot be
// suppressed.
type metaRule struct{ id, doc string }

// ID implements Rule.
func (m metaRule) ID() string { return m.id }

// Doc implements Rule.
func (m metaRule) Doc() string { return m.doc }

// Check implements Rule.
func (m metaRule) Check(*Package) []Finding { return nil }

// checkPackageWithSupp runs the rules over one loaded package, filters
// suppressed findings, and appends the suppression machinery's own
// findings (bad-suppress for malformed comments, unused-suppress for
// stale ones — scoped to the rules actually run, so partial rule runs
// do not misreport). It also returns the package's per-rule
// suppression census, which the driver aggregates for -stats and the
// SARIF run properties.
func checkPackageWithSupp(rules []Rule, p *Package) ([]Finding, map[string]int) {
	sup := newSuppressions(p)
	ran := make(map[string]bool, len(rules))
	var out []Finding
	for _, r := range rules {
		ran[r.ID()] = true
		for _, f := range r.Check(p) {
			if sup.suppressed(f) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, sup.report(ran)...)
	return out, sup.counts()
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.RuleID != b.RuleID {
			return a.RuleID < b.RuleID
		}
		return a.Message < b.Message
	})
}

// hasSuffixPath reports whether import path p equals one of the given
// paths or ends with "/"+path (so configs may use module-relative
// suffixes).
func hasSuffixPath(p string, paths []string) bool {
	for _, s := range paths {
		if p == s || strings.HasSuffix(p, "/"+s) {
			return true
		}
	}
	return false
}
