package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Result cache and parallel per-package analysis. A package's findings
// depend only on its own source, the source of its module-local
// dependencies (types flow across package boundaries), the rule
// configuration, and the analyzer version — so the cache key is a
// content hash over exactly those, and a cache hit skips parsing and
// type-checking entirely. Entries live under CacheDir (conventionally
// .swlint-cache/ at the module root, restored between CI runs) keyed
// by hash; the store is append-only and safe to delete at any time.

// CacheDirName is the conventional cache directory at the module root.
const CacheDirName = ".swlint-cache"

// RunOptions controls the parallel driver.
type RunOptions struct {
	// Jobs is the number of packages analyzed concurrently. Zero or
	// negative means GOMAXPROCS.
	Jobs int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// Stats, when non-nil, receives run statistics (package and cache
	// counters); the per-rule finding counts are derivable from the
	// returned findings.
	Stats *RunStats
}

// RunStats carries the driver's counters for the CLI's -stats output.
type RunStats struct {
	// Packages is the number of package directories analyzed.
	Packages int
	// CacheHits is how many of them were served from the on-disk cache.
	CacheHits int
	// Suppressions is the module-wide per-rule //swlint:ignore census,
	// aggregated across packages (cache hits included — the counts ride
	// in the cache entries).
	Suppressions map[string]int
}

// RunWithOptions loads the packages selected by patterns, runs every
// rule over them in parallel, with the result cache when opts name a
// directory, and returns the surviving (non-suppressed) findings. They
// are returned sorted by position regardless of completion order, so
// output is deterministic — the analyzer holds itself to the invariant
// it enforces.
func RunWithOptions(cfg Config, patterns []string, opts RunOptions) ([]Finding, error) {
	loader := NewLoader(cfg.ModuleRoot, cfg.ModulePath)
	dirs, err := loader.ResolveDirs(patterns)
	if err != nil {
		return nil, err
	}
	sums := NewSummarizer(cfg)
	if opts.CacheDir != "" {
		sums.SetCacheDir(opts.CacheDir)
	}
	rules := allRules(cfg, sums)
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(dirs) {
		jobs = len(dirs)
	}
	if jobs < 1 {
		jobs = 1
	}
	var store *cacheStore
	if opts.CacheDir != "" {
		store = &cacheStore{
			dir:    opts.CacheDir,
			fp:     configFingerprint(cfg),
			hasher: newDepHasher(cfg.ModuleRoot, cfg.ModulePath),
		}
	}
	results := make([][]Finding, len(dirs))
	supps := make([]map[string]int, len(dirs))
	errs := make([]error, len(dirs))
	hits := make([]bool, len(dirs))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], supps[i], hits[i], errs[i] = checkDir(loader, rules, store, dir)
		}(i, dir)
	}
	wg.Wait()
	var findings []Finding
	for i := range dirs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		findings = append(findings, results[i]...)
	}
	if opts.Stats != nil {
		opts.Stats.Packages = len(dirs)
		opts.Stats.Suppressions = make(map[string]int)
		for i, hit := range hits {
			if hit {
				opts.Stats.CacheHits++
			}
			for rule, n := range supps[i] {
				opts.Stats.Suppressions[rule] += n
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// checkDir analyzes one package directory, consulting the cache when
// enabled. Cache failures (unreadable entries, hash errors) degrade to
// a live run — the cache is an accelerator, never a correctness
// dependency.
func checkDir(loader *Loader, rules []Rule, store *cacheStore, dir string) ([]Finding, map[string]int, bool, error) {
	var key string
	if store != nil {
		if k, err := store.key(dir); err == nil {
			key = k
			if findings, supp, ok := store.load(k); ok {
				return findings, supp, true, nil
			}
		}
	}
	p, err := loader.LoadDir(dir, "")
	if err != nil {
		return nil, nil, false, err
	}
	findings, supp := checkPackageWithSupp(rules, p)
	if store != nil && key != "" {
		store.save(key, findings, supp)
	}
	return findings, supp, false, nil
}

// configFingerprint digests everything about the configuration that
// can change findings, so edited configs never reuse stale entries.
// The rule set is fixed per ToolVersion, which the digest carries.
func configFingerprint(cfg Config) string {
	h := sha256.New()
	w := func(ss ...string) {
		for _, s := range ss {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	w("swlint", ToolVersion, cfg.ModulePath, cfg.LDMPackage, cfg.CommPackage, cfg.VClockPackage, cfg.DMAPackage, cfg.SchedPackage)
	w(cfg.SimPackages...)
	w(cfg.CapacityExempt...)
	return hex.EncodeToString(h.Sum(nil))
}

// depHasher computes, with memoization, each package directory's file
// hashes and module-local imports; the cache key for a directory
// digests its whole transitive module-local closure.
type depHasher struct {
	root   string
	module string
	mu     sync.Mutex
	dirs   map[string]*dirInfo
}

type dirInfo struct {
	files   []string // "relpath\x00contenthash" lines, sorted
	deps    []string // module-local dependency directories
	scanErr error
}

func newDepHasher(root, module string) *depHasher {
	return &depHasher{root: root, module: module, dirs: make(map[string]*dirInfo)}
}

// scan reads one directory's non-test Go files of the current build
// (buildFile), hashing contents and collecting module-local imports
// with an imports-only parse.
func (h *depHasher) scan(dir string) *dirInfo {
	h.mu.Lock()
	if info, ok := h.dirs[dir]; ok {
		h.mu.Unlock()
		return info
	}
	h.mu.Unlock()
	info := h.scanUncached(dir)
	h.mu.Lock()
	h.dirs[dir] = info
	h.mu.Unlock()
	return info
}

func (h *depHasher) scanUncached(dir string) *dirInfo {
	info := &dirInfo{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		info.scanErr = err
		return info
	}
	fset := token.NewFileSet()
	depSet := make(map[string]bool)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		ok, err := buildFile(dir, name)
		if err != nil {
			info.scanErr = err
			return info
		}
		if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			info.scanErr = err
			return info
		}
		sum := sha256.Sum256(data)
		rel := path
		if r, err := filepath.Rel(h.root, path); err == nil {
			rel = filepath.ToSlash(r)
		}
		info.files = append(info.files, rel+"\x00"+hex.EncodeToString(sum[:]))
		f, err := parser.ParseFile(fset, path, data, parser.ImportsOnly)
		if err != nil {
			info.scanErr = err
			return info
		}
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath == h.module || strings.HasPrefix(ipath, h.module+"/") {
				rel := strings.TrimPrefix(strings.TrimPrefix(ipath, h.module), "/")
				depSet[filepath.Join(h.root, filepath.FromSlash(rel))] = true
			}
		}
	}
	sort.Strings(info.files)
	for d := range depSet {
		info.deps = append(info.deps, d)
	}
	sort.Strings(info.deps)
	return info
}

// closure returns the sorted file-hash lines of dir's transitive
// module-local closure.
func (h *depHasher) closure(dir string) ([]string, error) {
	seen := map[string]bool{dir: true}
	queue := []string{dir}
	var lines []string
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		info := h.scan(d)
		if info.scanErr != nil {
			return nil, info.scanErr
		}
		lines = append(lines, info.files...)
		for _, dep := range info.deps {
			if !seen[dep] {
				seen[dep] = true
				queue = append(queue, dep)
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// cacheStore is the on-disk findings store.
type cacheStore struct {
	dir    string
	fp     string
	hasher *depHasher
}

// key computes the cache key for one package directory.
func (s *cacheStore) key(dir string) (string, error) {
	lines, err := s.hasher.closure(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(s.fp))
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheEntry is the stored value. Filenames inside are module-root
// relative so a cache restored into a different checkout path stays
// valid; load rehydrates them to absolute paths.
type cacheEntry struct {
	Findings []Finding `json:"findings"`
	// Suppressions is the package's per-rule //swlint:ignore census,
	// carried in the entry so a fully cached run still aggregates the
	// module-wide suppression report without parsing anything.
	Suppressions map[string]int `json:"suppressions,omitempty"`
}

func (s *cacheStore) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

func (s *cacheStore) load(key string) ([]Finding, map[string]int, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, nil, false
	}
	for i := range e.Findings {
		s.rebase(&e.Findings[i], false)
	}
	return e.Findings, e.Suppressions, true
}

func (s *cacheStore) save(key string, findings []Finding, supp map[string]int) {
	e := cacheEntry{Findings: make([]Finding, len(findings)), Suppressions: supp}
	for i, f := range findings {
		if f.Fix != nil {
			fix := *f.Fix
			fix.Edits = append([]TextEdit(nil), f.Fix.Edits...)
			f.Fix = &fix
		}
		e.Findings[i] = f
		s.rebase(&e.Findings[i], true)
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "entry-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

// rebase rewrites the filenames inside a finding between absolute and
// module-root-relative form.
func (s *cacheStore) rebase(f *Finding, toRel bool) {
	conv := func(name string) string {
		if toRel {
			if rel, err := filepath.Rel(s.hasher.root, name); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel)
			}
			return name
		}
		if filepath.IsAbs(name) {
			return name
		}
		return filepath.Join(s.hasher.root, filepath.FromSlash(name))
	}
	f.Pos.Filename = conv(f.Pos.Filename)
	if f.Fix != nil {
		for i := range f.Fix.Edits {
			f.Fix.Edits[i].Filename = conv(f.Fix.Edits[i].Filename)
		}
	}
}

// DefaultCacheDir returns the conventional cache location for a module.
func DefaultCacheDir(moduleRoot string) string {
	return filepath.Join(moduleRoot, CacheDirName)
}
