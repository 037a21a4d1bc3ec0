package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags `for range` over a map in result-affecting packages.
// Go randomizes map iteration order per run, so any such loop whose
// body is order-sensitive (float accumulation, first-wins selection,
// output ordering) silently breaks bit-identity — the exact bug class
// PR 1 fixed twice in netsize after it had already corrupted results.
//
// Two shapes are accepted without annotation:
//
//   - `for range m` with no iteration variables: every iteration is
//     indistinguishable, so order cannot matter.
//   - the collect-then-sort idiom (the results JSON appender's
//     metrics): the loop body is exactly `keys = append(keys, k)` and
//     the same function later sorts keys (sort.Strings/Ints/Float64s/
//     Slice/Stable or slices.Sort/SortFunc).
//
// Anything else needs `//antlint:orderok <reason>` on or above the
// `for` line, forcing the author to argue order-independence.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flags map iteration in result-affecting packages unless collect-then-sorted or annotated //antlint:orderok",
	Run:  runMapIter,
}

func runMapIter(p *Pass) error {
	if !inResultScope(p.Pkg) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			p.checkMapRanges(fn.Body)
			return true
		})
	}
	return nil
}

func (p *Pass) checkMapRanges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if rs.Key == nil && rs.Value == nil {
			return true // pure repetition: order-free by construction
		}
		if _, ok := p.annotatedAt(rs.Pos(), "orderok"); ok {
			return true
		}
		if p.isCollectThenSort(body, rs) || p.isPerKeyWrite(rs) || p.isExtremumReduction(rs) {
			return true
		}
		p.Reportf(rs.Pos(), "iteration over map %s has randomized order in a result-affecting package; sort the keys (collect-then-sort) or annotate //antlint:orderok <reason>", typeString(t))
		return true
	})
}

// isCollectThenSort recognizes the MarshalJSON idiom: the range body
// is exactly `s = append(s, key)` — optionally guarded by a single
// side-effect-free if, as in `if !used[k] { s = append(s, k) }` — and
// s is sorted later in the same function body, after the loop.
func (p *Pass) isCollectThenSort(body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	keyIdent, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	stmt := rs.Body.List[0]
	if ifs, ok := stmt.(*ast.IfStmt); ok {
		if ifs.Init != nil || ifs.Else != nil || !p.isPureExpr(ifs.Cond) || len(ifs.Body.List) != 1 {
			return false
		}
		stmt = ifs.Body.List[0]
	}
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || !isBuiltin(p.TypesInfo, call.Fun, "append") {
		return false
	}
	if !sameObject(p.TypesInfo, call.Args[0], dst) || !sameObject(p.TypesInfo, call.Args[1], keyIdent) {
		return false
	}
	dstObj := identObject(p.TypesInfo, dst)
	if dstObj == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		if !isSortCall(p.TypesInfo, call.Fun) {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && identObject(p.TypesInfo, arg) == dstObj {
			sorted = true
		}
		return true
	})
	return sorted
}

// isPerKeyWrite recognizes order-independent per-key rewrites: the
// body is exactly one write to dst[key] (assignment, op-assignment,
// or ++/--) with a side-effect-free right-hand side. Map keys are
// unique within one iteration pass, so each dst slot is touched by
// exactly one iteration and order cannot matter.
func (p *Pass) isPerKeyWrite(rs *ast.RangeStmt) bool {
	keyObj := identObject(p.TypesInfo, rs.Key)
	if keyObj == nil || len(rs.Body.List) != 1 {
		return false
	}
	isDstIndex := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		t := p.TypesInfo.TypeOf(ix.X)
		if t == nil {
			return false
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
		return identObject(p.TypesInfo, ix.Index) == keyObj
	}
	switch stmt := rs.Body.List[0].(type) {
	case *ast.AssignStmt:
		if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
			return false
		}
		return isDstIndex(stmt.Lhs[0]) && p.isPureExpr(stmt.Rhs[0])
	case *ast.IncDecStmt:
		return isDstIndex(stmt.X)
	}
	return false
}

// isExtremumReduction recognizes the max/min fold — the body is
// exactly `if v > acc { acc = v }` (any of < > <= >=, either operand
// order). Max and min are commutative and associative, and a tie
// assigns the value already held, so the result is order-free.
// Multi-statement variants (argmax tracking the key) are NOT order
// free on ties and stay flagged.
func (p *Pass) isExtremumReduction(rs *ast.RangeStmt) bool {
	valObj := identObject(p.TypesInfo, rs.Value)
	if valObj == nil || len(rs.Body.List) != 1 {
		return false
	}
	ifs, ok := rs.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) != 1 {
		return false
	}
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	assign, ok := ifs.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	accObj := identObject(p.TypesInfo, assign.Lhs[0])
	if accObj == nil || identObject(p.TypesInfo, assign.Rhs[0]) != valObj {
		return false
	}
	l, r := identObject(p.TypesInfo, cond.X), identObject(p.TypesInfo, cond.Y)
	return (l == valObj && r == accObj) || (l == accObj && r == valObj)
}

// isPureExpr conservatively decides an expression cannot have side
// effects: identifiers, literals, field selections, indexing, unary
// and binary operators, type conversions, and len/cap. Any other
// call poisons it.
func (p *Pass) isPureExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return p.isPureExpr(e.X)
	case *ast.SelectorExpr:
		return p.isPureExpr(e.X)
	case *ast.IndexExpr:
		return p.isPureExpr(e.X) && p.isPureExpr(e.Index)
	case *ast.UnaryExpr:
		return e.Op != token.AND && p.isPureExpr(e.X)
	case *ast.BinaryExpr:
		return p.isPureExpr(e.X) && p.isPureExpr(e.Y)
	case *ast.CallExpr:
		if tv, ok := p.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return p.isPureExpr(e.Args[0])
		}
		if isBuiltin(p.TypesInfo, e.Fun, "len") || isBuiltin(p.TypesInfo, e.Fun, "cap") {
			return len(e.Args) == 1 && p.isPureExpr(e.Args[0])
		}
		return false
	}
	return false
}

// isSortCall matches the sort and slices functions that establish a
// deterministic order over their first argument.
func isSortCall(info *types.Info, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[pkg].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable", "Sort":
			return true
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func identObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

func sameObject(info *types.Info, a, b ast.Expr) bool {
	oa, ob := identObject(info, a), identObject(info, b)
	return oa != nil && oa == ob
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
