package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc checks functions annotated `//antlint:noalloc` (in their
// doc comment) for constructs that allocate, or are likely to
// allocate, on the Go heap. These are the steady-state hot functions
// the AllocsPerRun suites pin at 0 allocs/op: the pin catches a
// regression at test time, the analyzer names the offending line at
// build time and also covers paths the pinned benchmark world shape
// happens not to reach.
//
// Flagged constructs: map and slice literals, make, new, non-self
// append (anything but `x = append(x, ...)`), string concatenation
// and string<->[]byte/[]rune conversions, fmt calls, go and defer
// statements, variable-capturing closures, method values, variadic
// calls that materialize their argument slice, and interface boxing
// of non-pointer-shaped values (conversions, call arguments,
// assignments, returns).
//
// The check is intra-procedural by design: a call to a helper is not
// followed (annotate the helper too if it is hot), and cap-sufficient
// self-append is trusted. A deliberate cold-path allocation inside a
// noalloc function (e.g. lazy scratch growth) is suppressed line by
// line with `//antlint:allocok <reason>`.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "flags allocating constructs inside functions annotated //antlint:noalloc",
	Run:  runNoAlloc,
}

func runNoAlloc(p *Pass) error {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := docAnnotated(fn.Doc, "noalloc"); !ok {
				continue
			}
			p.checkNoAlloc(fn)
		}
	}
	return nil
}

func (p *Pass) checkNoAlloc(fn *ast.FuncDecl) {
	flag := func(n ast.Node, format string, args ...any) {
		if _, ok := p.annotatedAt(n.Pos(), "allocok"); ok {
			return
		}
		p.Reportf(n.Pos(), format+" (//antlint:noalloc function %s; a deliberate cold path needs //antlint:allocok <reason>)",
			append(args, fn.Name.Name)...)
	}
	var sig *types.Signature
	if obj, ok := p.TypesInfo.Defs[fn.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}

	var stack []ast.Node
	panicDepth := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if call, ok := top.(*ast.CallExpr); ok && isBuiltin(p.TypesInfo, call.Fun, "panic") {
				panicDepth--
			}
			return true
		}
		parent := ast.Node(nil)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(p.TypesInfo, call.Fun, "panic") {
			panicDepth++
		}
		// A panicking path is never steady state: whatever its
		// arguments allocate, the function is already crashing.
		if panicDepth > 0 {
			return true
		}

		switch n := n.(type) {
		case *ast.CompositeLit:
			switch p.underlyingOf(n).(type) {
			case *types.Map:
				flag(n, "map literal allocates")
			case *types.Slice:
				flag(n, "slice literal allocates")
			}
		case *ast.GoStmt:
			flag(n, "go statement allocates a goroutine")
		case *ast.DeferStmt:
			flag(n, "defer may allocate its frame")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := p.TypesInfo.Types[n]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						flag(n, "string concatenation allocates")
					}
				}
			}
		case *ast.FuncLit:
			if caps := p.capturedVars(fn, n); len(caps) > 0 {
				flag(n, "closure captures %s and allocates", strings.Join(caps, ", "))
			}
		case *ast.SelectorExpr:
			if sel := p.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				if call, ok := parent.(*ast.CallExpr); !ok || call.Fun != ast.Expr(n) {
					flag(n, "method value %s allocates its bound receiver", n.Sel.Name)
				}
			}
		case *ast.CallExpr:
			p.checkNoAllocCall(fn, n, parent, flag)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				if isSelfAppend(p.TypesInfo, n, i) {
					continue
				}
				p.checkBoxing(rhs, p.TypesInfo.TypeOf(n.Lhs[i]), flag)
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if len(n.Names) != len(n.Values) {
					break
				}
				p.checkBoxing(v, p.TypesInfo.TypeOf(n.Names[i]), flag)
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					p.checkBoxing(res, sig.Results().At(i).Type(), flag)
				}
			}
		}
		return true
	})
}

func (p *Pass) checkNoAllocCall(fn *ast.FuncDecl, call *ast.CallExpr, parent ast.Node, flag func(ast.Node, string, ...any)) {
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call, "make allocates")
			case "new":
				flag(call, "new allocates")
			case "append":
				if !appendIsSelf(p.TypesInfo, call, parent) {
					flag(call, "append into a different destination allocates; only `x = append(x, ...)` is accepted")
				}
			}
			return
		}
	}
	// Conversions.
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, p.TypesInfo.TypeOf(call.Args[0])
		if isStringByteConversion(dst, src) {
			flag(call, "%s conversion copies and allocates", typeString(dst))
			return
		}
		p.checkBoxing(call.Args[0], dst, flag)
		return
	}
	// fmt in any form.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.TypesInfo.Uses[pkg].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				flag(call, "fmt.%s allocates", sel.Sel.Name)
				return
			}
		}
	}
	// Ordinary calls: variadic materialization and per-argument boxing.
	sig, ok := p.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	n := sig.Params().Len()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) > n-1 {
		flag(call, "variadic call materializes its argument slice")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = sig.Params().At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = sig.Params().At(i).Type()
		}
		p.checkBoxing(arg, pt, flag)
	}
}

// checkBoxing flags src when storing it into dst requires boxing a
// non-pointer-shaped value into an interface.
func (p *Pass) checkBoxing(src ast.Expr, dst types.Type, flag func(ast.Node, string, ...any)) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := p.TypesInfo.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) {
		return
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if pointerShaped(tv.Type) {
		return
	}
	flag(src, "%s value boxed into %s allocates", typeString(tv.Type), typeString(dst))
}

// pointerShaped reports whether values of t are stored directly in an
// interface word (no heap box): pointers, channels, maps, funcs, and
// unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringByteConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	toString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	byteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Uint8 || e.Kind() == types.Rune || e.Kind() == types.Int32)
	}
	return (toString(dst) && byteish(src)) || (byteish(dst) && toString(src))
}

// appendIsSelf reports whether call is the RHS of `x = append(x, ...)`
// (plain assignment, same destination as first argument).
func appendIsSelf(info *types.Info, call *ast.CallExpr, parent ast.Node) bool {
	assign, ok := parent.(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != len(assign.Rhs) {
		return false
	}
	for i, rhs := range assign.Rhs {
		if rhs == ast.Expr(call) {
			return len(call.Args) > 0 && sameVarExpr(info, assign.Lhs[i], call.Args[0])
		}
	}
	return false
}

func isSelfAppend(info *types.Info, assign *ast.AssignStmt, i int) bool {
	call, ok := assign.Rhs[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	return appendIsSelf(info, call, assign)
}

// sameVarExpr reports whether a and b statically denote the same
// variable: matching identifiers or field selections on the same
// base.
func sameVarExpr(info *types.Info, a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && identObject(info, a) != nil && identObject(info, a) == identObject(info, bi)
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		as, bsel := info.Selections[a], info.Selections[bs]
		if as == nil || bsel == nil || as.Obj() != bsel.Obj() {
			return false
		}
		return sameVarExpr(info, a.X, bs.X)
	}
	return false
}

// capturedVars lists variables declared in fn but outside lit that
// lit's body references — the captures that force the closure (and
// boxed variables) onto the heap. References to package-level state
// or fields do not count.
func (p *Pass) capturedVars(fn *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[types.Object]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() && !(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

func (p *Pass) underlyingOf(e ast.Expr) types.Type {
	t := p.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}
