package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The test-only-export gate: an exported declaration under internal/
// that no non-test file of the module (or of perfbench, a module of
// its own that imports internal packages) references is API only tests
// run. It is a test rather than an analyzer because a Pass sees one
// package, and the question is about every package at once.

const (
	rootPath     = "antdensity"
	internalPath = rootPath + "/internal/"
)

// loadUsers loads the non-test packages of the module and of
// perfbench: every package whose references count as a use.
func loadUsers(t *testing.T, root string) (module, all []*Package) {
	t.Helper()
	module, err := NewLoader(root).Load("./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	bench, err := NewLoader(filepath.Join(root, "perfbench")).Load("./...")
	if err != nil {
		t.Fatalf("loading perfbench packages: %v", err)
	}
	return module, append(append([]*Package(nil), module...), bench...)
}

// objKey names obj across loads: the same declaration type-checked
// from source and read from export data gets the same key. It is ""
// for objects the gate does not track (locals, fields, universe).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil {
				return "" // an interface method
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var, *types.TypeName, *types.Const:
	default:
		return ""
	}
	// Locals and struct fields are not in the package scope.
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed is the named type a method receiver of type t belongs to,
// or nil for an interface method.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil {
		return nil
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return nil
	}
	return named.Origin()
}

// usedKeys returns the key of every object a file of pkgs refers to,
// except a declaration's references to itself (a recursive call, a
// method's receiver type).
func usedKeys(pkgs []*Package) map[string]bool {
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				self := map[string]bool{}
				var recv ast.Node
				switch d := decl.(type) {
				case *ast.FuncDecl:
					self[objKey(pkg.TypesInfo.Defs[d.Name])] = true
					if d.Recv != nil {
						recv = d.Recv
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						names, _ := specNames(spec)
						for _, id := range names {
							self[objKey(pkg.TypesInfo.Defs[id])] = true
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if n == recv {
						return false
					}
					if id, ok := n.(*ast.Ident); ok {
						if k := objKey(pkg.TypesInfo.Uses[id]); k != "" && !self[k] {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}
	return used
}

// specNames returns the names a type, var or const spec declares, and
// the spec's own doc comment.
func specNames(spec ast.Spec) ([]*ast.Ident, *ast.CommentGroup) {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}, s.Doc
	case *ast.ValueSpec:
		return s.Names, s.Doc
	}
	return nil, nil
}

// methodID is a method's name and signature, with types written by
// package path and no parameter names, so that a method and the
// interface method it implements get the same ID across loads.
func methodID(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), (*types.Package).Path))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// interfaceMethods is the ID of every method of every interface type
// that pkgs or the packages they import declare, or that pkgs write,
// the universe's error included. A method matching one may be called
// through the interface (fmt calls String, encoding/json calls
// MarshalJSON) with no file naming the method.
func interfaceMethods(pkgs []*Package) map[string]bool {
	ids := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ids[methodID(it.Method(i))] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	declared := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		declared(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			declared(imp)
		}
		for _, tv := range pkg.TypesInfo.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return ids
}

// reachableTypes is the key of every named internal type a user of
// the root package's exported API can hold: those its declarations
// name, and those reachable from them through exported fields and
// method signatures.
func reachableTypes(root *types.Package) map[string]bool {
	reach := map[string]bool{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			reach[objKey(t.Origin().Obj())] = true
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, name := range root.Scope().Names() {
		if obj := root.Scope().Lookup(name); obj.Exported() {
			walk(obj.Type())
		}
	}
	return reach
}

// testOnlyExports lists every exported function, method, type, var
// and const of the internal packages among decls that no file of
// users references, as "file:line: message". Exempt are methods that
// implement an interface method, methods of types reachable from the
// root package's exported API, and declarations whose doc comment
// carries //antlint:testonly with a reason. A marker with no reason,
// or on a declaration non-test code does reference, is listed too.
func testOnlyExports(decls, users []*Package) []string {
	used := usedKeys(users)
	ifaceIDs := interfaceMethods(users)
	var reach map[string]bool
	for _, pkg := range users {
		if pkg.Types.Path() == rootPath {
			reach = reachableTypes(pkg.Types)
		}
	}
	var found []string
	report := func(pkg *Package, pos token.Pos, format string, args ...any) {
		found = append(found, pkg.Fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
	}
	check := func(pkg *Package, id *ast.Ident, doc *ast.CommentGroup, what string) {
		key := objKey(pkg.TypesInfo.Defs[id])
		if key == "" {
			return
		}
		name := strings.TrimPrefix(key, internalPath)
		marker, marked := docAnnotated(doc, "testonly")
		switch {
		case marked && marker.Reason == "":
			report(pkg, id.Pos(), "%s carries //antlint:testonly with no reason", name)
		case marked && used[key]:
			report(pkg, id.Pos(), "%s is marked //antlint:testonly but non-test code references it; drop the marker", name)
		case !marked && !used[key]:
			report(pkg, id.Pos(), "exported %s %s has no reference outside tests; delete it, or mark it //antlint:testonly <reason>", what, name)
		}
	}
	for _, pkg := range decls {
		if !strings.HasPrefix(pkg.Types.Path(), internalPath) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						check(pkg, d.Name, d.Doc, "function")
						continue
					}
					fn := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
					if named == nil || reach[objKey(named.Obj())] || ifaceIDs[methodID(fn)] {
						continue
					}
					check(pkg, d.Name, d.Doc, "method")
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						names, doc := specNames(spec)
						if doc == nil {
							doc = d.Doc
						}
						for _, id := range names {
							if id.IsExported() {
								check(pkg, id, doc, d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(found)
	return found
}

// TestRepoNoTestOnlyExports fails on exported API under internal/
// that only tests run. Delete such a declaration; keep it only as a
// reference implementation tests compare against, a fixture several
// packages' tests share, or what an open ROADMAP item needs, and then
// say which in its //antlint:testonly marker.
func TestRepoNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module and perfbench")
	}
	module, all := loadUsers(t, repoRoot(t))
	found := testOnlyExports(module, all)
	for _, f := range found {
		t.Error(f)
	}
	if len(found) > 0 {
		t.Logf("%d test-only exports", len(found))
	}
}

// TestRepoTestOnlyGateCatchesNewExport is the regression for the gate
// itself, as TestRepoFingerprintCoversSpec is for fingerprintcover:
// copy a real internal package, give it an exported function nobody
// calls, and check that only a //antlint:testonly marker with a reason
// lets it through.
func TestRepoTestOnlyGateCatchesNewExport(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module and perfbench")
	}
	root := repoRoot(t)
	_, users := loadUsers(t, root)
	names, err := filepath.Glob(filepath.Join(root, "internal", "stats", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"unmarked", "", "exported function stats.DummyTestOnly has no reference outside tests"},
		{"marked", "//antlint:testonly a fixture the tests share\n", ""},
		{"no reason", "//antlint:testonly\n", "stats.DummyTestOnly carries //antlint:testonly with no reason"},
	} {
		tmp := t.TempDir()
		var copied []string
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(name) == "stats.go" {
				src = append(src, "\n// DummyTestOnly is called by nothing.\n"+tc.doc+"func DummyTestOnly() {}\n"...)
			}
			dst := filepath.Join(tmp, filepath.Base(name))
			if err := os.WriteFile(dst, src, 0o644); err != nil {
				t.Fatal(err)
			}
			copied = append(copied, dst)
		}
		pkg, err := NewLoader(root).LoadFiles(internalPath+"stats", copied...)
		if err != nil {
			t.Fatalf("%s: type-checking the copy: %v", tc.name, err)
		}
		found := testOnlyExports([]*Package{pkg}, append(users, pkg))
		switch {
		case tc.want == "" && len(found) > 0:
			t.Errorf("%s: gate flagged %q", tc.name, found)
		case tc.want != "" && (len(found) != 1 || !strings.Contains(found[0], tc.want)):
			t.Errorf("%s: gate found %q, want one finding containing %q", tc.name, found, tc.want)
		}
	}
}
