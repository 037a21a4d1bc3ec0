package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// RngPurity enforces that every draw of randomness in the
// result-affecting packages provably flows through internal/rng
// streams, and that no hidden mutable state can leak between runs:
//
//   - importing math/rand, math/rand/v2, or crypto/rand is a hard
//     error (no annotation escape): seeded rng.Stream substreams are
//     the only legitimate randomness source, because they are what
//     the worker/shard-invariance proofs split and replay.
//   - calling time.Now, time.Since, or time.Until is an error —
//     wall-clock reads are a randomness source in disguise. The
//     journal and serve layers are allowlisted (their timestamps are
//     observational).
//   - a package-level var that the package itself mutates
//     (reassignment, element write, address-taken, pointer-receiver
//     method call) is flagged unless annotated
//     `//antlint:globalok <reason>`: cross-run shared state is how
//     one run's results come to depend on which runs preceded it.
//     Package-level vars that are only ever read (lookup tables,
//     experiment axis definitions) pass silently.
var RngPurity = &Analyzer{
	Name: "rngpurity",
	Doc:  "forbids math/rand, crypto/rand, wall-clock reads, and mutated package-level state in result-affecting packages",
	Run:  runRngPurity,
}

var forbiddenRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

func runRngPurity(p *Pass) error {
	if !inResultScope(p.Pkg) {
		return nil
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if forbiddenRandImports[path] {
				p.Reportf(imp.Pos(), "import of %s in a result-affecting package: all randomness must flow through internal/rng streams", path)
			}
		}
	}
	p.checkWallClock()
	p.checkPackageState()
	return nil
}

func (p *Pass) checkWallClock() {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.TypesInfo.Uses[pkg].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			switch sel.Sel.Name {
			case "Now", "Since", "Until":
				p.Reportf(sel.Pos(), "time.%s in a result-affecting package: wall-clock reads are nondeterministic; thread times in from the caller if one is truly needed", sel.Sel.Name)
			}
			return true
		})
	}
}

// checkPackageState flags package-level vars that the package itself
// mutates. Mutation is detected structurally: direct or element
// assignment, ++/--, address-taken, or a pointer-receiver method call
// (which covers sync.Map.Store, atomic .Store/.Add, mutex locking).
// Aliasing through a returned pointer or a copied map header is not
// tracked — the check is a tripwire for the common shapes, not an
// escape analysis.
func (p *Pass) checkPackageState() {
	vars := map[types.Object]*ast.Ident{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					if obj := p.TypesInfo.Defs[name]; obj != nil {
						vars[obj] = name
					}
				}
			}
		}
	}
	if len(vars) == 0 {
		return
	}
	mutated := map[types.Object]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if obj := rootObject(p.TypesInfo, lhs); obj != nil && vars[obj] != nil {
						mutated[obj] = true
					}
				}
			case *ast.IncDecStmt:
				if obj := rootObject(p.TypesInfo, n.X); obj != nil && vars[obj] != nil {
					mutated[obj] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if obj := rootObject(p.TypesInfo, n.X); obj != nil && vars[obj] != nil {
						mutated[obj] = true
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := rootObject(p.TypesInfo, sel.X)
				if obj == nil || vars[obj] == nil {
					return true
				}
				if s := p.TypesInfo.Selections[sel]; s != nil {
					if fn, ok := s.Obj().(*types.Func); ok {
						sig := fn.Type().(*types.Signature)
						if recv := sig.Recv(); recv != nil {
							if _, isPtr := recv.Type().(*types.Pointer); isPtr {
								mutated[obj] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	for obj, name := range vars {
		if !mutated[obj] {
			continue
		}
		if _, ok := p.annotatedAt(name.Pos(), "globalok"); ok {
			continue
		}
		p.Reportf(name.Pos(), "package-level var %s is mutated in a result-affecting package: cross-run shared state breaks run independence; make it run-scoped or annotate //antlint:globalok <reason>", name.Name)
	}
}

// rootObject strips selectors, indexing, derefs, and parens down to
// the base identifier's object: registry[k], counter.Store,
// (&box).field all root at their package-level var.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return identObject(info, x)
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Var) roots at the selected
			// object, not the package name.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
