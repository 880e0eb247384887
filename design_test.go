package bgpcoll_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// decls indexes the declarations of every Go file in the repository: each
// package's top-level names and, per type, its methods and fields.
type decls struct {
	pkgs    map[string]map[string]bool            // package name -> top-level names
	types   map[string]map[string]map[string]bool // package -> type -> members
	names   map[string]bool                       // every top-level name
	members map[string]bool                       // every method and field name
	stdlib  map[string]bool                       // names of imported non-repo packages
}

// loadDecls parses every Go file under root, test files included and
// testdata fixtures excluded.
func loadDecls(t *testing.T, root string) *decls {
	t.Helper()
	d := &decls{
		pkgs:    map[string]map[string]bool{},
		types:   map[string]map[string]map[string]bool{},
		names:   map[string]bool{},
		members: map[string]bool{},
		stdlib:  map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *decls) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]bool{}
		d.types[pkg] = map[string]map[string]bool{}
	}
	top := d.pkgs[pkg]
	member := func(typ, name string) {
		if d.types[pkg][typ] == nil {
			d.types[pkg][typ] = map[string]bool{}
		}
		d.types[pkg][typ][name] = true
		d.members[name] = true
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(path, "bgpcoll") {
			d.stdlib[path[strings.LastIndex(path, "/")+1:]] = true
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				top[decl.Name.Name] = true
				d.names[decl.Name.Name] = true
				continue
			}
			typ := decl.Recv.List[0].Type
			for {
				switch x := typ.(type) {
				case *ast.StarExpr:
					typ = x.X
					continue
				case *ast.IndexExpr:
					typ = x.X
					continue
				case *ast.IndexListExpr:
					typ = x.X
					continue
				}
				break
			}
			if id, ok := typ.(*ast.Ident); ok {
				member(id.Name, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					top[spec.Name.Name] = true
					d.names[spec.Name.Name] = true
					if d.types[pkg][spec.Name.Name] == nil {
						d.types[pkg][spec.Name.Name] = map[string]bool{}
					}
					var fields *ast.FieldList
					switch x := spec.Type.(type) {
					case *ast.StructType:
						fields = x.Fields
					case *ast.InterfaceType:
						fields = x.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(spec.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 { // embedded: the type's name
							typ := fl.Type
							if s, ok := typ.(*ast.StarExpr); ok {
								typ = s.X
							}
							switch x := typ.(type) {
							case *ast.Ident:
								member(spec.Name.Name, x.Name)
							case *ast.SelectorExpr:
								member(spec.Name.Name, x.Sel.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top[n.Name] = true
						d.names[n.Name] = true
					}
				}
			}
		}
	}
}

// isType reports whether name is a type in some repository package.
func (d *decls) isType(name string) bool {
	for _, ts := range d.types {
		if ts[name] != nil {
			return true
		}
	}
	return false
}

// typeHas reports whether some repository type called typ has the member.
func (d *decls) typeHas(typ, member string) bool {
	for _, ts := range d.types {
		if ts[typ][member] {
			return true
		}
	}
	return false
}

// resolve reports whether a dotted identifier names a declaration, and
// whether it is a repository identifier at all: stdlib-qualified names are
// skipped.
func (d *decls) resolve(parts []string) (repo, ok bool) {
	head, rest := parts[0], parts[1:]
	switch {
	case len(rest) == 0:
		return true, d.names[head] || d.members[head]
	case d.pkgs[head] != nil && d.pkgs[head][rest[0]]:
		if len(rest) == 1 {
			return true, true
		}
		return true, d.types[head][rest[0]][rest[1]] && d.allMembers(rest[2:])
	case d.stdlib[head]:
		return false, true
	case d.pkgs[head] != nil:
		return true, false
	case d.isType(head):
		return true, d.typeHas(head, rest[0]) && d.allMembers(rest[1:])
	}
	// A variable's selector chain: each selector is a method or field.
	return true, d.allMembers(rest)
}

func (d *decls) allMembers(names []string) bool {
	for _, n := range names {
		if !d.members[n] {
			return false
		}
	}
	return true
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// dotted is a Go identifier chain, optionally path-qualified
	// (internal/lint.TestRepoClean) and optionally called (At(now)).
	dotted  = regexp.MustCompile(`^(?:[\w/]+/)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?$`)
	fileExt = map[string]bool{"go": true, "json": true, "md": true, "txt": true, "csv": true, "pgo": true, "sh": true, "yml": true, "mod": true}
)

// designIdent returns the identifier chain a code span cites, or nil when
// the span is not one the documents' readers would look up: prose, shell
// commands, file names, lower-case locals, all-caps environment variables,
// and MPI standard names (MPI_Bcast).
func designIdent(span string) []string {
	m := dotted.FindStringSubmatch(span)
	if m == nil || strings.HasPrefix(m[1], "MPI_") {
		return nil
	}
	parts := strings.Split(m[1], ".")
	last := parts[len(parts)-1]
	if len(parts) > 1 && fileExt[last] {
		return nil
	}
	if name := parts[0]; len(parts) == 1 && (name == strings.ToUpper(name) || name[0] < 'A' || name[0] > 'Z') {
		return nil
	}
	return parts
}

// TestDesignIdentifiersExist: every repository identifier DESIGN.md or
// README.md cites in a code span (pkg.Name, Type.Method, a TestName or an
// exported name) names a declaration in the tree, so the documents cannot
// keep describing code that is gone.
func TestDesignIdentifiersExist(t *testing.T) {
	d := loadDecls(t, ".")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				parts := designIdent(m[1])
				if parts == nil {
					continue
				}
				if repo, ok := d.resolve(parts); repo && !ok {
					t.Errorf("%s:%d: `%s` names no declaration in the tree", doc, i+1, m[1])
				}
			}
		}
	}
}
