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

// TestBaselineRoundTrip covers the baseline lifecycle: update from
// findings, multiset filtering, stale-entry detection, reason
// carry-forward and the on-disk round trip.
func TestBaselineRoundTrip(t *testing.T) {
	_, cfg := fixtureLoader(t)
	mk := func(rule, file, msg string, line int) Finding {
		f := Finding{RuleID: rule, Message: msg}
		f.Pos.Filename = filepath.Join(cfg.ModuleRoot, file)
		f.Pos.Line = line
		return f
	}
	findings := []Finding{
		mk("map-order", "internal/obs/metrics.go", "map iteration order reaches simulation state", 10),
		mk("map-order", "internal/obs/metrics.go", "map iteration order reaches simulation state", 40),
		mk(BadSuppressID, "internal/obs/metrics.go", "malformed suppression", 5),
	}

	prev := &Baseline{Entries: []BaselineEntry{{
		Rule:    "map-order",
		File:    "internal/obs/metrics.go",
		Message: "map iteration order reaches simulation state",
		Reason:  "pre-existing; tracked for cleanup",
	}}}
	b := UpdateBaseline(prev, findings, cfg.ModuleRoot, "accepted while the metrics rework lands")
	if len(b.Entries) != 2 {
		t.Fatalf("baseline has %d entries, want 2 (bad-suppress is never baselined): %+v", len(b.Entries), b.Entries)
	}
	if b.Entries[0].Reason != "pre-existing; tracked for cleanup" {
		t.Errorf("first entry reason = %q, want carried-forward reason", b.Entries[0].Reason)
	}
	if b.Entries[1].Reason != "accepted while the metrics rework lands" {
		t.Errorf("second entry reason = %q, want the supplied -baseline-reason", b.Entries[1].Reason)
	}
	if noReason := UpdateBaseline(prev, findings, cfg.ModuleRoot, ""); noReason.Entries[1].Reason != "TODO: justify or fix" {
		t.Errorf("empty reason stamped %q, want the placeholder", noReason.Entries[1].Reason)
	}

	kept, stale := b.Filter(findings, cfg.ModuleRoot)
	if len(stale) != 0 {
		t.Errorf("fresh baseline reports stale entries: %+v", stale)
	}
	if len(kept) != 1 || kept[0].RuleID != BadSuppressID {
		t.Errorf("kept = %v, want only the bad-suppress finding", kept)
	}

	// One finding fixed: its entry goes stale, the other still filters.
	kept, stale = b.Filter(findings[1:], cfg.ModuleRoot)
	if len(kept) != 1 || len(stale) != 1 {
		t.Errorf("after fixing one finding: kept %d, stale %d; want 1 and 1", len(kept), len(stale))
	}

	path := filepath.Join(t.TempDir(), BaselineFile)
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Entries, b.Entries) {
		t.Errorf("round trip mismatch:\nsaved  %+v\nloaded %+v", b.Entries, loaded.Entries)
	}

	// A missing file is an empty baseline; a reason-free entry is an error.
	empty, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(empty.Entries) != 0 {
		t.Errorf("missing baseline: entries=%d err=%v, want empty and nil", len(empty.Entries), err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"entries":[{"rule":"map-order","file":"a.go","message":"m","reason":" "}]}`), 0o644)
	if _, err := LoadBaseline(bad); err == nil {
		t.Error("baseline entry without a reason loaded without error")
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

// TestCacheRoundTrip runs the parallel driver twice over the suppress
// fixture with a shared cache directory and demands identical findings:
// the second run is served from disk and must not change results.
func TestCacheRoundTrip(t *testing.T) {
	_, cfg := fixtureLoader(t)
	pattern := filepath.Join("internal", "lint", "testdata", "src", "suppress")
	cacheDir := t.TempDir()

	var liveStats RunStats
	first, err := RunWithOptions(cfg, []string{pattern}, RunOptions{CacheDir: cacheDir, Stats: &liveStats})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("suppress fixture produced no findings; the cache test needs a non-empty result")
	}
	ents, err := os.ReadDir(cacheDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("cache dir not populated (entries=%d, err=%v)", len(ents), err)
	}

	var cachedStats RunStats
	second, err := RunWithOptions(cfg, []string{pattern}, RunOptions{CacheDir: cacheDir, Stats: &cachedStats})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached run differs from live run:\nlive   %v\ncached %v", first, second)
	}
	if len(liveStats.Suppressions) == 0 {
		t.Error("live run reported no suppressions; the suppress fixture should have some")
	}
	if !reflect.DeepEqual(liveStats.Suppressions, cachedStats.Suppressions) {
		t.Errorf("suppression census differs between live and cached runs:\nlive   %v\ncached %v",
			liveStats.Suppressions, cachedStats.Suppressions)
	}

	uncached, err := RunWithOptions(cfg, []string{pattern}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, uncached) {
		t.Errorf("cache-enabled run differs from uncached run:\nuncached %v\ncached   %v", uncached, first)
	}
}

// TestLoaderKeepsOnlyBuildFiles loads a package whose files declare
// the same names under a GOARCH suffix and under a //go:build line and
// its negation: the loader, the package walk and the cache's hasher
// must each keep exactly the files go build compiles here.
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
	info := newDepHasher(cfg.ModuleRoot, cfg.ModulePath).scan(dir)
	if info.scanErr != nil {
		t.Fatal(info.scanErr)
	}
	var hashed []string
	for _, line := range info.files {
		name, _, _ := strings.Cut(line, "\x00")
		hashed = append(hashed, filepath.Base(name))
	}
	if !reflect.DeepEqual(hashed, want) {
		t.Errorf("hashed %v, want %v", hashed, want)
	}
}

// TestSimPackageScopeCoversVClockImporters is the scope meta-test: any
// package under internal/ that imports the virtual clock participates
// in simulated time and must be inside the determinism rules' scope.
func TestSimPackageScopeCoversVClockImporters(t *testing.T) {
	_, cfg := fixtureLoader(t)
	l := NewLoader(cfg.ModuleRoot, cfg.ModulePath)
	dirs, err := l.packageDirs(filepath.Join(cfg.ModuleRoot, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	h := newDepHasher(cfg.ModuleRoot, cfg.ModulePath)
	vclockDir := filepath.Join(cfg.ModuleRoot, "internal", "vclock")
	for _, dir := range dirs {
		if dir == vclockDir {
			continue
		}
		info := h.scan(dir)
		if info.scanErr != nil {
			t.Fatalf("scanning %s: %v", dir, info.scanErr)
		}
		imports := false
		for _, d := range info.deps {
			if d == vclockDir {
				imports = true
			}
		}
		if !imports {
			continue
		}
		path, err := l.pathOf(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !hasSuffixPath(path, cfg.SimPackages) {
			t.Errorf("%s imports internal/vclock but is missing from simPackageSuffixes; "+
				"the determinism rules (no-wallclock, map-order, goroutine-purity) do not cover it", path)
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
	dead, declared := uncalledExports(t, l, pkgs, cfg.ModulePath+"/internal/")
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
func uncalledExports(t *testing.T, l *Loader, pkgs []*Package, internal string) (map[string]token.Position, map[string]bool) {
	t.Helper()
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
				addInterface(t, l, ifaces, obj.Type())
			case *types.Var:
				addInterface(t, l, ifaces, obj.Type())
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
		if recv := d.fn.Type().(*types.Signature).Recv(); recv != nil && implementsNamed(t, l, recv.Type(), d.fn.Name(), ifaces) {
			continue
		}
		dead[name] = d.pos
	}
	return dead, declared
}

// addInterface records typ in ifaces if it is a named interface type:
// one that module code names, or the type of a field, parameter or
// variable that module code uses (types.Config{Importer: l}).
func addInterface(t *testing.T, l *Loader, ifaces map[string]*types.Interface, typ types.Type) {
	named, ok := typ.(*types.Named)
	if !ok || !types.IsInterface(named) {
		return
	}
	key := types.TypeString(named, nil)
	if _, seen := ifaces[key]; seen {
		return
	}
	if c := canonicalType(t, l, named.Obj()); c != nil {
		ifaces[key] = c.Underlying().(*types.Interface)
	}
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
func implementsNamed(t *testing.T, l *Loader, recv types.Type, name string, ifaces map[string]*types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	typ := canonicalType(t, l, named.Obj())
	if typ == nil {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
	}
	return false
}

// canonicalType returns the package-level type named by obj as the
// loader's import cache holds it, so types from separately loaded
// packages compare by identity; nil for function-local types.
func canonicalType(t *testing.T, l *Loader, obj *types.TypeName) types.Type {
	t.Helper()
	if obj.Pkg() == nil {
		return obj.Type()
	}
	pkg, err := l.Import(obj.Pkg().Path())
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := pkg.Scope().Lookup(obj.Name()).(*types.TypeName); ok {
		return o.Type()
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
