package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one type-checked compilation unit ready for analysis. For a
// directory containing external test files (package foo_test) the loader
// produces two Packages sharing the same Path, so analyzer scoping applies
// to both.
type Package struct {
	Path  string // import path analyzers match against
	Name  string // package clause name (may end in _test)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of the enclosing module without
// any network or module-cache access: module-internal imports are resolved
// recursively from source, and standard-library imports go through the
// compiler's source importer (GOROOT only).
type Loader struct {
	Root    string // module root directory (contains go.mod)
	Module  string // module path from go.mod
	start   string // directory patterns are resolved relative to
	fset    *token.FileSet
	std     types.Importer
	imports map[string]*types.Package // module-internal import cache
}

// NewLoader locates the enclosing module starting at dir. Patterns passed to
// Load resolve relative to dir, matching the go tool's behavior ("./..."
// from a subdirectory covers that subtree only).
func NewLoader(dir string) (*Loader, error) {
	start, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := start
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod above %s", dir)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  mod,
		start:   start,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		imports: map[string]*types.Package{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the given patterns ("./...", "./internal/shm", import paths)
// into analysis-ready packages, test files included.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// Dirs resolves patterns to the package directories Load would visit, in
// the same order. The CLI uses it to load and analyze one directory at a
// time (LoadDir).
func (l *Loader) Dirs(patterns []string) ([]string, error) {
	return l.expand(patterns)
}

// LoadDir loads one package directory (both its base and external-test
// units), as Load does for each directory a pattern expands to.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	return l.loadDir(dir)
}

// expand turns patterns into a sorted list of package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			err := filepath.WalkDir(l.start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != l.start && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if ok, err := hasGoFiles(path); err != nil {
					return err
				} else if ok {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			var dir string
			if rest, ok := strings.CutPrefix(pat, l.Module); ok {
				// Import-path pattern: resolve against the module root.
				dir = filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(rest, "/")))
			} else {
				// Relative directory pattern: resolve against the cwd.
				dir = filepath.Join(l.start, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			}
			if ok, err := hasGoFiles(dir); err != nil {
				return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
			} else if !ok {
				return nil, fmt.Errorf("lint: pattern %q: no Go files in %s", pat, dir)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// importPath maps a package directory to its module import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// loadDir parses and checks one directory, producing one unit for the
// package plus its in-package tests and, if present, one for the external
// test package.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	path := l.importPath(dir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var base, xtest []*ast.File
	var baseName, xtestName string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		ok, err := fileIncluded(l.fset, f)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
			xtestName = f.Name.Name
		} else {
			base = append(base, f)
			baseName = f.Name.Name
		}
	}
	var units []*Package
	if len(base) > 0 {
		pkg, err := l.check(path, base)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: path, Name: baseName, Dir: dir,
			Fset: l.fset, Files: base, Types: pkg.pkg, Info: pkg.info,
		})
	}
	if len(xtest) > 0 {
		pkg, err := l.check(path+"_test", xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: path, Name: xtestName, Dir: dir,
			Fset: l.fset, Files: xtest, Types: pkg.pkg, Info: pkg.info,
		})
	}
	return units, nil
}

// loaderTag is the build configuration the source loader compiles for: the
// host OS and architecture, the gc toolchain, and the release tags — and no
// optional tags, so race, ignore, cgo and foreign-GOOS constraints evaluate
// false exactly as they do in a default `go build`.
func loaderTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return runtime.GOOS == "linux" || runtime.GOOS == "darwin"
	}
	return strings.HasPrefix(tag, "go1.")
}

// buildIncluded evaluates f's build constraint, if any, under the loader's
// fixed tag set. Only comments above the package clause can constrain the
// build; a //go:build line is authoritative, otherwise legacy // +build
// lines AND together.
func buildIncluded(f *ast.File) (bool, error) {
	var legacy []constraint.Expr
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			switch {
			case constraint.IsGoBuild(text):
				expr, err := constraint.Parse(text)
				if err != nil {
					return false, fmt.Errorf("build-constrained file: parsing %q: %w", text, err)
				}
				return expr.Eval(loaderTag), nil
			case constraint.IsPlusBuild(text):
				expr, err := constraint.Parse(text)
				if err != nil {
					return false, fmt.Errorf("build-constrained file: parsing %q: %w", text, err)
				}
				legacy = append(legacy, expr)
			}
		}
	}
	for _, e := range legacy {
		if !e.Eval(loaderTag) {
			return false, nil
		}
	}
	return true, nil
}

// fileIncluded reports whether the source loader should type-check f. The
// loader compiles for one fixed configuration (loaderTag), so it applies
// build constraints the way `go build` does: a file excluded under that
// configuration — //go:build race, ignore, a foreign GOOS — is skipped
// rather than mis-merged into the package as a redeclaration. A file that
// is included must still be checkable: a cgo file has no C toolchain behind
// the type-checker and fails up front with an error naming the file.
func fileIncluded(fset *token.FileSet, f *ast.File) (bool, error) {
	ok, err := buildIncluded(f)
	if err != nil {
		pos := fset.Position(f.Package)
		return false, fmt.Errorf("lint: %s: %w", pos.Filename, err)
	}
	if !ok {
		return false, nil
	}
	for _, imp := range f.Imports {
		if imp.Path.Value == `"C"` {
			pos := fset.Position(f.Package)
			return false, fmt.Errorf("lint: %s: file imports \"C\": cgo packages cannot be type-checked by the source loader; exclude the file from the lint tree", pos.Filename)
		}
	}
	return true, nil
}

type checked struct {
	pkg  *types.Package
	info *types.Info
}

// check type-checks one file set as the package named by path.
func (l *Loader) check(path string, files []*ast.File) (checked, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return checked{}, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return checked{pkg: pkg, info: info}, nil
}

// Import implements types.Importer: module-internal paths are resolved from
// the module tree (non-test files only, mirroring what importing compilers
// see), everything else from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: import %q: %w", path, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		ok, err := fileIncluded(l.fset, f)
		if err != nil {
			return nil, fmt.Errorf("lint: import %q: %w", path, err)
		}
		if !ok {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: import %q: no Go files in %s", path, dir)
	}
	c, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.imports[path] = c.pkg
	return c.pkg, nil
}

// LoadFixture type-checks a single testdata directory as if it were the
// package imported at importPath, so analyzer scoping rules (and sanctioned
// file names) apply exactly as they do on the real tree. Used by the
// analysistest-style fixture tests.
func (l *Loader) LoadFixture(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	name := ""
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		name = f.Name.Name
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: fixture %s: no Go files", dir)
	}
	c, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path: importPath, Name: name, Dir: dir,
		Fset: l.fset, Files: files, Types: c.pkg, Info: c.info,
	}, nil
}
