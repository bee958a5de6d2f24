package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package ready for rule checking. Test
// files are not loaded: every rule's scope is the non-test build, and
// external test packages (package foo_test) cannot be type-checked
// together with their subject anyway.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path
	Dir   string
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-local import paths resolve directly to
// directories under the module root, everything else (the standard
// library) goes through go/importer's source importer. One Loader
// caches dependencies across Load calls, so loading the whole module
// type-checks each stdlib package once.
//
// The loader is safe for concurrent LoadDir calls: Import deduplicates
// in-flight work per path (first caller computes, others wait on the
// entry's done channel), and the stdlib source importer — which makes
// no concurrency promises — is serialized behind its own mutex. Import
// recursion across distinct paths cannot deadlock because Go package
// imports form a DAG.
type Loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	stdMu  sync.Mutex
	mu     sync.Mutex
	cache  map[string]*importEntry
}

// importEntry is one per-path singleflight slot in the import cache.
type importEntry struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

// NewLoader returns a loader for the module rooted at root with the
// given module path.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  make(map[string]*importEntry),
	}
}

// Import implements types.Importer for dependency resolution during
// type checking.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	if e, ok := l.cache[path]; ok {
		l.mu.Unlock()
		<-e.done
		return e.pkg, e.err
	}
	e := &importEntry{done: make(chan struct{})}
	l.cache[path] = e
	l.mu.Unlock()
	defer close(e.done)
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		e.pkg, e.err = l.check(path, l.dirOf(path), nil)
		return e.pkg, e.err
	}
	l.stdMu.Lock()
	p, err := l.std.ImportFrom(path, l.root, 0)
	l.stdMu.Unlock()
	if err != nil {
		e.err = fmt.Errorf("lint: importing %s: %w", path, err)
		return nil, e.err
	}
	e.pkg = p
	return p, nil
}

// dirOf maps a module-local import path to its directory.
func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// pathOf maps a directory under the module root to its import path.
func (l *Loader) pathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// buildFile reports whether the file name in dir is a non-test Go file
// that `go build` compiles for this GOOS and GOARCH, as its file-name
// suffixes and its //go:build line decide: of two files that declare
// the same function for different architectures, only one is loaded.
func buildFile(dir, name string) (bool, error) {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return build.Default.MatchFile(dir, name)
}

// parseDir parses the non-test Go files of one directory that the
// current build compiles.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		ok, err := buildFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks the package in dir under import path. When info is
// non-nil the use/def/selection maps are filled for rule checking.
func (l *Loader) check(path, dir string, info *types.Info) (*types.Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// LoadDir loads the single package in dir, rooted anywhere under the
// module, with full type information. importPath overrides the derived
// path when non-empty (fixture trees under testdata/ use this to pose
// as arbitrary packages).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := importPath
	if path == "" {
		if path, err = l.pathOf(abs); err != nil {
			return nil, err
		}
	}
	files, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", abs)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Fset: l.fset, Path: path, Dir: abs, Files: files, Info: info, Pkg: pkg}, nil
}

// ResolveDirs expands package patterns — "./...", "dir/...", or plain
// directories, relative to the module root — into a sorted list of
// package directories.
func (l *Loader) ResolveDirs(patterns []string) ([]string, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ds, err := l.packageDirs(l.root)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				dirs[d] = true
			}
		case strings.HasSuffix(pat, "/..."):
			base := l.resolve(strings.TrimSuffix(pat, "/..."))
			ds, err := l.packageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				dirs[d] = true
			}
		default:
			dirs[l.resolve(pat)] = true
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	return sorted, nil
}

// resolve interprets a pattern as a directory, relative to the module
// root unless absolute.
func (l *Loader) resolve(pat string) string {
	if filepath.IsAbs(pat) {
		return pat
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
}

// packageDirs walks base collecting every directory holding at least
// one non-test Go file of the current build, skipping testdata, vendor
// and hidden trees.
func (l *Loader) packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := buildFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		abs = parent
	}
}
