package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestApplyFixes proves the -fix pipeline end to end on a copy of the
// fixes fixture: the sorted-key map rewrite and the %v → %w rewrite
// apply, the rewritten package type-checks, re-analysis is clean, and
// a second apply changes nothing (idempotency).
func TestApplyFixes(t *testing.T) {
	_, cfg := fixtureLoader(t)
	src, err := os.ReadFile(filepath.Join("testdata", "src", "fixes", "fixes.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "fixes.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	l, _ := fixtureLoader(t)
	rules := []Rule{
		MapOrderRule{SimPackages: cfg.SimPackages, VClockPackage: cfg.VClockPackage, CommPackage: cfg.CommPackage, Sums: testSummarizer(t)},
		ErrWrapRule{},
	}
	as := cfg.ModulePath + "/internal/core"
	p, err := l.LoadDir(dir, as)
	if err != nil {
		t.Fatal(err)
	}
	findings := checkPackage(rules, p)
	fixable := 0
	for _, f := range findings {
		if f.Fix != nil {
			fixable++
		}
	}
	if len(findings) != 2 || fixable != 2 {
		t.Fatalf("got %d findings (%d fixable), want 2 fixable; findings: %v", len(findings), fixable, findings)
	}

	changed, applied, err := ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || len(applied) != 2 {
		t.Fatalf("ApplyFixes changed %v, applied %d findings; want 1 file, 2 findings", changed, len(applied))
	}
	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"sort"`, "sort.Ints(", "%w"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed source missing %q:\n%s", want, fixed)
		}
	}

	// The rewritten package must type-check and analyze clean.
	p2, err := l.LoadDir(dir, as)
	if err != nil {
		t.Fatalf("fixed source does not type-check: %v", err)
	}
	if rest := checkPackage(rules, p2); len(rest) != 0 {
		t.Fatalf("findings survive the fix: %v", rest)
	}

	// Idempotency: a second -fix pass has nothing to apply.
	changed2, _, err := ApplyFixes(checkPackage(rules, p2))
	if err != nil {
		t.Fatal(err)
	}
	if len(changed2) != 0 {
		t.Errorf("second fix pass rewrote %v, want nothing", changed2)
	}
}

// TestWriteSARIF checks the exported document's shape: schema header,
// rule table, result wiring and module-root-relative URIs.
func TestWriteSARIF(t *testing.T) {
	_, cfg := fixtureLoader(t)
	f := Finding{RuleID: "map-order", Message: "map iteration order reaches simulation state"}
	f.Pos.Filename = filepath.Join(cfg.ModuleRoot, "internal", "obs", "metrics.go")
	f.Pos.Line = 12
	f.Pos.Column = 2

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, []Finding{f}, AllRules(cfg), cfg.ModuleRoot, map[string]int{"float-eq": 3, "map-order": 1}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Properties struct {
				Suppressions map[string]int `json:"suppressions"`
			} `json:"properties"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "swlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(AllRules(cfg)) {
		t.Errorf("rule table has %d rules, want %d", len(run.Tool.Driver.Rules), len(AllRules(cfg)))
	}
	res := run.Results[0]
	if res.RuleID != "map-order" || res.Level != "error" {
		t.Errorf("result = %s/%s, want map-order/error", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/obs/metrics.go" {
		t.Errorf("uri = %q, want module-root-relative internal/obs/metrics.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 12 {
		t.Errorf("startLine = %d, want 12", loc.Region.StartLine)
	}
	if run.Properties.Suppressions["float-eq"] != 3 || run.Properties.Suppressions["map-order"] != 1 {
		t.Errorf("run properties suppressions = %v, want float-eq:3 map-order:1", run.Properties.Suppressions)
	}
}

// TestRunCensus runs Run over two fixture packages and pins
// what it reports: the surviving findings of both, in position order,
// and the per-rule suppression census summed across them, which
// -stats prints and the SARIF run properties carry.
func TestRunCensus(t *testing.T) {
	_, cfg := fixtureLoader(t)
	fixtures := filepath.Join("internal", "lint", "testdata", "src")
	findings, stats, err := Run(cfg, []string{filepath.Join(fixtures, "suppress"), filepath.Join(fixtures, "interproc")})
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, findings, []expect{
		{"collective-match", "interproc.go", 40, "reached via interproc.broadcast → Bcast"},
		{"collective-match", "interproc.go", 48, "reached via interproc.sumAll → interproc.reduceHelper → AllReduceSum"},
		{"collective-match", "interproc.go", 57, "no matching Barrier"},
		{"unused-suppress", "suppress.go", 19, "err-wrap"},
		{"unused-suppress", "suppress.go", 25, "no-wallclock"},
		{"float-eq", "suppress.go", 26, "floating-point"},
		{"bad-suppress", "suppress.go", 32, "malformed"},
		{"float-eq", "suppress.go", 33, "floating-point"},
		{"unused-suppress", "suppress.go", 39, "float-eq"},
		{"float-eq", "suppress.go", 41, "floating-point"},
		{"bad-suppress", "suppress.go", 47, "unknown rule flaot-eq"},
		{"float-eq", "suppress.go", 48, "floating-point"},
		{"bad-suppress", "suppress.go", 53, "unknown rule collective-order"},
		{"float-eq", "suppress.go", 54, "floating-point"},
	})
	if stats.Packages != 2 {
		t.Errorf("Packages = %d, want 2", stats.Packages)
	}
	want := map[string]int{"float-eq": 4, "err-wrap": 1, "no-wallclock": 1, "collective-match": 1}
	if !reflect.DeepEqual(stats.Suppressions, want) {
		t.Errorf("suppression census = %v, want %v", stats.Suppressions, want)
	}
}

// TestLoaderTypeChecksEachPackageOnce holds the loader to one
// type-check per module package: loading a package directory twice
// returns the same Package, its types.Package is the one Import hands
// to importers, and each module-local import it records is that
// dependency's own loaded types.Package, not a second copy.
func TestLoaderTypeChecksEachPackageOnce(t *testing.T) {
	l, cfg := fixtureLoader(t)
	dirs, err := l.packageDirs(cfg.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		p, err := l.LoadDir(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		if again, err := l.LoadDir(dir, ""); err != nil || again != p {
			t.Errorf("%s: second LoadDir returned %p (err %v), want the first Package %p", p.Path, again, err, p)
		}
		if imported, err := l.Import(p.Path); err != nil || imported != p.Pkg {
			t.Errorf("%s: Import returned %p (err %v), want the loaded Pkg %p", p.Path, imported, err, p.Pkg)
		}
		for _, imp := range p.Pkg.Imports() {
			if !strings.HasPrefix(imp.Path()+"/", cfg.ModulePath+"/") {
				continue
			}
			dep, err := l.LoadDir(l.dirOf(imp.Path()), "")
			if err != nil {
				t.Fatal(err)
			}
			if dep.Pkg != imp {
				t.Errorf("%s imports a second copy of %s", p.Path, imp.Path())
			}
		}
	}
}

// TestLoaderKeepsOnlyBuildFiles loads a package whose files declare
// the same names under a GOARCH suffix and under a //go:build line and
// its negation: the loader and the package walk must each keep exactly
// the files go build compiles here.
func TestLoaderKeepsOnlyBuildFiles(t *testing.T) {
	l, cfg := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "buildfiles"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"guarded.go", "tag_off.go"}
	if arch := build.Default.GOARCH; arch == "amd64" || arch == "arm64" {
		want = append(want, "arch_"+arch+".go")
	}
	sort.Strings(want)
	p := loadFixture(t, "buildfiles", cfg.ModulePath+"/internal/fixture/buildfiles")
	var loaded []string
	for _, f := range p.Files {
		loaded = append(loaded, filepath.Base(p.Fset.Position(f.Pos()).Filename))
	}
	sort.Strings(loaded)
	if !reflect.DeepEqual(loaded, want) {
		t.Errorf("loaded %v, want %v", loaded, want)
	}
	if dirs, err := l.packageDirs(dir); err != nil || !reflect.DeepEqual(dirs, []string{dir}) {
		t.Errorf("packageDirs = %v, %v; want [%s]", dirs, err, dir)
	}
}

// TestSimPackageScopeCoversVClockImporters is the scope meta-test: any
// package under internal/ that imports the virtual clock participates
// in simulated time and must be inside the determinism rules' scope.
func TestSimPackageScopeCoversVClockImporters(t *testing.T) {
	l, cfg := fixtureLoader(t)
	dirs, err := l.packageDirs(filepath.Join(cfg.ModuleRoot, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		p, err := l.LoadDir(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == cfg.VClockPackage && !hasSuffixPath(p.Path, cfg.SimPackages) {
				t.Errorf("%s imports internal/vclock but is missing from simPackageSuffixes; "+
					"the determinism rules (no-wallclock, map-order, goroutine-purity) do not cover it", p.Path)
			}
		}
	}
}

// TestRuleCatalogueDocumented ties the rule catalogue to its docs:
// every rule AllRules builds, the two suppression meta-rules aside, has
// a "### `id`" heading in docs/STATIC_ANALYSIS.md, and every such
// heading names a rule AllRules builds, so a retired rule cannot
// linger in the docs.
func TestRuleCatalogueDocumented(t *testing.T) {
	_, cfg := fixtureLoader(t)
	doc, err := os.ReadFile(filepath.Join(cfg.ModuleRoot, "docs", "STATIC_ANALYSIS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^### `([^`]+)`").FindAllStringSubmatch(string(doc), -1) {
		headings[m[1]] = true
	}
	rules := make(map[string]bool)
	for _, r := range AllRules(cfg) {
		rules[r.ID()] = true
		if r.ID() != BadSuppressID && r.ID() != UnusedSuppressID && !headings[r.ID()] {
			t.Errorf("rule %s has no ### `%s` heading in docs/STATIC_ANALYSIS.md", r.ID(), r.ID())
		}
	}
	for id := range headings {
		if !rules[id] {
			t.Errorf("docs/STATIC_ANALYSIS.md documents ### `%s`, which AllRules does not build", id)
		}
	}
}

// TestSimPackageSuffixesResolve is the inverse meta-test: every
// simPackageSuffixes entry must name a package that actually exists
// with Go sources, so a rename or removal cannot leave a stale entry
// silently shrinking the determinism scope.
func TestSimPackageSuffixesResolve(t *testing.T) {
	_, cfg := fixtureLoader(t)
	for _, suffix := range simPackageSuffixes {
		dir := filepath.Join(cfg.ModuleRoot, filepath.FromSlash(suffix))
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("simPackageSuffixes entry %q does not resolve: %v", suffix, err)
			continue
		}
		hasGo := false
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			t.Errorf("simPackageSuffixes entry %q has no Go sources", suffix)
		}
	}
}

// exportAllowList names the exported functions and methods under
// internal/ that no non-test file calls and that stay on purpose,
// keyed by types.Func.FullName, each with its reason.
var exportAllowList = map[string]string{
	"(*repro/internal/core.Result).Centroid":               "reachable through the facade (repro.Result) and used in docs/TUTORIAL.md",
	"repro/internal/dataset.FromRows":                      "fixture constructor that the dataset, core and quality tests share; shared test support cannot live in a _test.go file",
	"(*repro/internal/dataset.Matrix).Row":                 "fixture accessor that the dataset, core and root tests share",
	"(*repro/internal/dataset.GaussianMixture).Center":     "ground truth that tests compare recovered centroids against",
	"(*repro/internal/dataset.GaussianMixture).Components": "ground truth that tests compare recovered centroids against",
	"(*repro/internal/dataset.HardMixture).Center":         "ground truth that tests compare recovered centroids against",
	"(*repro/internal/dataset.HardMixture).Components":     "ground truth that tests compare recovered centroids against",
	"(*repro/internal/dataset.LandCover).Signature":        "ground truth that the land-cover tests compare clusters against",
	"(*repro/internal/obs.Unit).EndTime":                   "the tiling invariant that the obs, core and sw26010 tests check",
	"(*repro/internal/machine.Spec).WriteJSON":             "writes the spec file that swkmeans -spec reads",
}

// TestExportedFunctionsHaveCallers is the dead-code meta-test: every
// exported function or method declared in a non-test file under
// internal/ must be referenced from non-test code outside its own
// declaration (cmd/, examples/ and bench/ count as callers), unless an
// exemption rule or exportAllowList covers it. Each allow-list entry
// must still name such a function and must still lack a caller.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	l, cfg := fixtureLoader(t)
	dirs, err := l.packageDirs(cfg.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	dead, declared := uncalledExports(pkgs, cfg.ModulePath+"/internal/")
	for _, name := range sortedKeys(dead) {
		if _, ok := exportAllowList[name]; !ok {
			pos := dead[name]
			if rel, err := filepath.Rel(cfg.ModuleRoot, pos.Filename); err == nil {
				pos.Filename = rel
			}
			t.Errorf("%s: exported %s has no non-test caller; delete it, or allow-list it with a reason", pos, name)
		}
	}
	for _, name := range sortedKeys(exportAllowList) {
		switch _, isDead := dead[name]; {
		case !declared[name]:
			t.Errorf("exportAllowList names %s, which is not an exported function under internal/", name)
		case !isDead:
			t.Errorf("exportAllowList names %s, which now has a non-test caller or an exemption; drop the entry", name)
		}
	}
}

// uncalledExports returns the exported functions and methods declared
// under the internal prefix that nothing outside their own declaration
// references and no exemption covers, with their positions, and the
// set of every exported function declared there. Exempt are Must*
// wrappers, methods the standard library calls by name, and methods
// through which their type implements an interface type that module
// code names or gives a field, parameter or variable.
func uncalledExports(pkgs []*Package, internal string) (map[string]token.Position, map[string]bool) {
	type decl struct {
		fn  *types.Func
		pos token.Position
		fd  *ast.FuncDecl
	}
	decls := make(map[string]decl)
	called := make(map[string]bool)
	ifaces := make(map[string]*types.Interface)
	for _, p := range pkgs {
		if strings.HasPrefix(p.Path+"/", internal) {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
						fn := p.Info.Defs[fd.Name].(*types.Func)
						decls[fn.FullName()] = decl{fn, p.Fset.Position(fd.Pos()), fd}
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				// Every package shares the loader's file set, so a
				// position inside the declaration's span is in its body.
				name := obj.Origin().FullName()
				if d, ok := decls[name]; !ok || id.Pos() < d.fd.Pos() || id.Pos() >= d.fd.End() {
					called[name] = true
				}
			case *types.TypeName:
				addInterface(ifaces, obj.Type())
			case *types.Var:
				addInterface(ifaces, obj.Type())
			}
		}
	}
	dead := make(map[string]token.Position)
	declared := make(map[string]bool)
	for name, d := range decls {
		declared[name] = true
		if called[name] || strings.HasPrefix(d.fn.Name(), "Must") || calledByName(d.fn.Name()) {
			continue
		}
		if recv := d.fn.Type().(*types.Signature).Recv(); recv != nil && implementsNamed(recv.Type(), d.fn.Name(), ifaces) {
			continue
		}
		dead[name] = d.pos
	}
	return dead, declared
}

// addInterface records typ in ifaces if it is a named interface type:
// one that module code names, or the type of a field, parameter or
// variable that module code uses (types.Config{Importer: l}).
func addInterface(ifaces map[string]*types.Interface, typ types.Type) {
	named, ok := typ.(*types.Named)
	if !ok || !types.IsInterface(named) {
		return
	}
	ifaces[types.TypeString(named, nil)] = named.Underlying().(*types.Interface)
}

// calledByName reports whether the standard library calls a method of
// this name dynamically (fmt, errors, encoding/*).
func calledByName(name string) bool {
	switch name {
	case "String", "Format", "Error", "Is", "As", "Unwrap":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// implementsNamed reports whether the receiver type, or a pointer to
// it, implements one of ifaces that declares a method called name.
func implementsNamed(recv types.Type, name string, ifaces map[string]*types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
