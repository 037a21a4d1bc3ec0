package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one type-checked package ready for analysis. Only the
// package's own (non-test) source is loaded; imports are resolved
// from compiled export data, never re-parsed.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	Dir       string
}

// A Loader type-checks packages of the module rooted at Dir. Imports
// resolve through `go list -export` compiled export data, so loading
// works offline with nothing but the standard toolchain: the go
// command compiles (or reuses from the build cache) every dependency
// and hands back its export file.
type Loader struct {
	Dir  string
	fset *token.FileSet
	imp  types.Importer

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
}

// NewLoader returns a Loader for the module rooted at dir (“” means
// the current directory).
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// lookup feeds the gc importer: export data comes from the table
// primed by Load, with a lazy `go list -export` fallback for paths
// first seen as indirect imports (e.g. fixture packages importing a
// stdlib package no module package uses).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		out, err := l.goList("-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, fmt.Errorf("resolving import %q: %w", path, err)
		}
		file = strings.TrimSpace(string(out))
		l.mu.Lock()
		l.exports[path] = file
		l.mu.Unlock()
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// Load type-checks every package matching the go list patterns
// (typically "./...") and returns them in import-path order.
// Dependencies are compiled for export data as a side effect, so a
// package that does not build surfaces its compile error here.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	args := append([]string{"-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,DepOnly"}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		l.mu.Lock()
		l.exports[p.ImportPath] = p.Export
		l.mu.Unlock()
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := l.LoadFiles(t.ImportPath, files...)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks the single package formed by every .go file in
// dir, under the given import path. Used for analysistest fixtures
// (testdata directories are invisible to go list) and for synthesized
// package copies in regression tests.
//
//antlint:testonly loads the analyzer tests' testdata fixture packages, which go list cannot see
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(names)
	return l.LoadFiles(importPath, names...)
}

// LoadFiles type-checks one package from an explicit file list.
func (l *Loader) LoadFiles(importPath string, filenames ...string) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	dir := ""
	if len(filenames) > 0 {
		dir = filepath.Dir(filenames[0])
	}
	return &Package{Fset: l.fset, Files: files, Types: tpkg, TypesInfo: info, Dir: dir}, nil
}
