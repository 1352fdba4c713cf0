// Package lint holds the repository's static checks, run as tier-1 tests
// over one type-checked index of the source tree: the dead-code ratchet
// (every exported name under internal/ has a caller outside its package),
// the write-only-field rule (every struct field there that code writes,
// some file reads), the guard on the frozen benchmark module (every repro
// name it uses resolves), and the doc-lint (every path and symbol the prose
// documents cite exists). The package has no non-test code.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// frozen is the directory, relative to the module root, of the benchmark
// module: it reads the library, is never edited with it, and is indexed
// with its test files as one more caller.
const frozen = "benchmark"

// A module is every Go package of one source tree, parsed and type-checked
// together: the non-test files of each package, plus every file of the
// frozen benchmark directory.
type module struct {
	path string // module path, e.g. "repro"
	root string
	fset *token.FileSet
	info *types.Info
	pkgs map[string]*pkg      // by import path
	file map[*token.File]*pkg // the package each non-test file belongs to
	std  types.Importer
	errs []string // type errors, one line each

	testOnce sync.Once
	test     *types.Info // uses and types in the test files (testInfo)
	testErrs []string
}

type pkg struct {
	path     string
	files    []*ast.File
	types    *types.Package
	checking bool
	// tests and xtests are the package's own and its external test files
	// (none for the frozen benchmark, whose tests are among files); only
	// testInfo type-checks them.
	tests, xtests []*ast.File
}

// load parses and type-checks the tree at root as module modPath. Standard
// library imports are read from compiled export data located by one
// `go list -export` call.
func load(root, modPath string) (*module, error) {
	m := &module{
		path: modPath,
		root: root,
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*pkg{},
		file: map[*token.File]*pkg{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return m.parseDir(dir)
	})
	if err != nil {
		return nil, err
	}
	stdSet := map[string]bool{}
	for _, p := range m.pkgs {
		for _, f := range slices.Concat(p.files, p.tests, p.xtests) {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); m.pkgs[path] == nil {
					stdSet[path] = true
				}
			}
		}
	}
	lookup, err := exportData(root, stdSet)
	if err != nil {
		return nil, err
	}
	m.std = importer.ForCompiler(m.fset, "gc", lookup)
	for _, path := range m.sorted() {
		m.check(m.pkgs[path])
	}
	return m, nil
}

// parseDir parses the package in dir, the files that match the default
// build context: its non-test files, and apart from them its test files —
// except in the frozen directory, whose test files count among its own.
func (m *module) parseDir(dir string) error {
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	path := m.path
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	p := &pkg{path: path}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(name, "_test.go") && rel != frozen
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			if test {
				p.xtests = append(p.xtests, f) // not a caller of record
			}
		case test:
			p.tests = append(p.tests, f)
		default:
			p.files = append(p.files, f)
			m.file[m.fset.File(f.Pos())] = p
		}
	}
	// A package of test files alone, as this one is, is indexed too: its
	// declarations are among the names the documents may cite.
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		m.pkgs[path] = p
	}
	return nil
}

// exportData returns a lookup of compiled export data for the standard
// library packages in imports and everything they import.
func exportData(dir string, imports map[string]bool) (func(string) (io.ReadCloser, error), error) {
	files := map[string]string{}
	if len(imports) > 0 {
		args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
		for path := range imports {
			args = append(args, path)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				files[path] = file
			}
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}, nil
}

// Import resolves an import of a module package by type-checking it, and
// any other from export data.
func (m *module) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	return m.check(p), nil
}

func (m *module) check(p *pkg) *types.Package {
	if p.types != nil {
		return p.types
	}
	p.checking = true
	conf := types.Config{
		Importer: m,
		Error:    func(err error) { m.errs = append(m.errs, err.Error()) },
	}
	p.types, _ = conf.Check(p.path, m.fset, p.files, m.info) // errors are collected above
	p.checking = false
	return p.types
}

// testInfo type-checks every package's test files, once: the package again
// with its own test files, then its external test package against that. It
// records definitions, uses and expression types, for rules that count what
// tests declare and read; a non-test file's objects keep their declaring
// positions across the two checks.
func (m *module) testInfo() (*types.Info, []string) {
	m.testOnce.Do(func() {
		m.test = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		for _, path := range m.sorted() {
			p := m.pkgs[path]
			conf := types.Config{Importer: m, Error: func(err error) { m.testErrs = append(m.testErrs, err.Error()) }}
			own := p.types
			if len(p.tests) > 0 {
				own, _ = conf.Check(path, m.fset, slices.Concat(p.files, p.tests), m.test)
			}
			if len(p.xtests) > 0 {
				// As the go command builds them: the package under test is
				// its test variant, and so is every module package the
				// external tests import that imports it in turn.
				variants := map[string]*types.Package{path: own}
				var variant importerFunc
				variant = func(imp string) (*types.Package, error) {
					if v, ok := variants[imp]; ok {
						return v, nil
					}
					q := m.pkgs[imp]
					if q == nil || own == p.types || !m.reaches(q, path) {
						return m.Import(imp)
					}
					vconf := types.Config{Importer: variant, Error: conf.Error}
					variants[imp], _ = vconf.Check(imp, m.fset, q.files, nil)
					return variants[imp], nil
				}
				conf.Importer = variant
				conf.Check(path+"_test", m.fset, p.xtests, m.test)
			}
		}
	})
	return m.test, m.testErrs
}

// reaches reports whether p's non-test files import the package at path,
// directly or through other module packages.
func (m *module) reaches(p *pkg, path string) bool {
	for _, f := range p.files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == path || m.pkgs[ip] != nil && m.reaches(m.pkgs[ip], path) {
				return true
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (m *module) sorted() []string {
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// pkgAt is the package of the file holding pos.
func (m *module) pkgAt(pos token.Pos) *pkg { return m.file[m.fset.File(pos)] }

// internal reports whether path is a package under the module's internal/.
func (m *module) internal(path string) bool { return strings.HasPrefix(path, m.path+"/internal/") }

var (
	repoOnce sync.Once
	repoMod  *module
	repoErr  error
)

// repo is the index of this repository, built once per test binary.
func repo(t *testing.T) *module {
	t.Helper()
	repoOnce.Do(func() {
		root := filepath.Join("..", "..")
		var mod []byte
		if mod, repoErr = os.ReadFile(filepath.Join(root, "go.mod")); repoErr != nil {
			return
		}
		first, _, _ := strings.Cut(string(mod), "\n")
		repoMod, repoErr = load(root, strings.TrimSpace(strings.TrimPrefix(first, "module")))
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoMod
}

// TestTypeChecks fails on any name the index cannot resolve. The root
// module's own packages are compiled by `go build` anyway; what this adds is
// the frozen benchmark module, so a deletion under internal/ that would
// break benchmark/ fails `go test ./...` and not only its own CI step.
func TestTypeChecks(t *testing.T) {
	m := repo(t)
	for _, err := range m.errs {
		t.Error(err)
	}
	if m.pkgs[m.path+"/"+frozen] == nil {
		t.Errorf("no %s package indexed", frozen)
	}
}
