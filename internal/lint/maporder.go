package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sortCalls maps qualified function names that establish a deterministic
// order to the argument index holding the slice being sorted.
var sortCalls = map[string]int{
	"sort.Slice":            0,
	"sort.SliceStable":      0,
	"sort.Sort":             0,
	"sort.Stable":           0,
	"sort.Strings":          0,
	"sort.Ints":             0,
	"sort.Float64s":         0,
	"slices.Sort":           0,
	"slices.SortFunc":       0,
	"slices.SortStableFunc": 0,
}

// MapOrder returns the analyzer that flags iteration over a map whose
// body leaks the (randomised) iteration order: appending to a slice that
// is never subsequently sorted, writing or accumulating output, or
// feeding the seeded RNG. These are the classic nondeterminism bugs a
// reproducibility test can only catch probabilistically — a 5-key map
// iterates identically in most runs and differently in the one you ship.
func MapOrder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "flag map iteration whose order leaks into slices (unsorted), output, or the RNG",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapExpr(pass, rs.X) {
					return
				}
				body, _ := funcParts(enclosingFunc(stack))
				checkMapRange(pass, rs, body)
			})
		}
	}
	return a
}

// isMapExpr reports whether the expression's type is (or points to) a map.
func isMapExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	_, isMap := t.(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body for order leaks. enclosing is
// the body of the innermost function containing the range statement; the
// search for a redeeming sort call extends over it.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if target, ok := appendTarget(pass, n); ok {
				// A slice declared inside the loop is rebuilt fresh every
				// iteration; only slices that outlive the loop leak order.
				if target != nil && target.Pos() >= rs.Pos() && target.Pos() < rs.End() {
					return true
				}
				if !sortedLater(pass, enclosing, target, rs.Pos()) {
					name := "the result"
					if target != nil {
						name = target.Name()
					}
					pass.Reportf(n.Pos(), "map iteration appends to %s, which is never sorted afterwards: iteration order is randomised, so the slice order is too (sort it, or range over sorted keys)", name)
				}
				return true
			}
			if name, ok := outputCall(pass, n); ok {
				pass.Reportf(n.Pos(), "map iteration writes output via %s: iteration order is randomised, so the output order is too (range over sorted keys instead)", name)
				return true
			}
			if rngFeedCall(pass, n) {
				pass.Reportf(n.Pos(), "map iteration feeds the RNG: the number and order of draws depends on randomised iteration order, breaking seeded reproducibility (range over sorted keys instead)")
				return true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 {
				return true
			}
			// An accumulator declared inside the loop body is fresh per
			// iteration and cannot observe iteration order.
			if v := rootVar(pass, n.Lhs[0]); v != nil && v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
				return true
			}
			// s += ... on a string accumulates output in iteration order.
			if n.Tok == token.ADD_ASSIGN && isString(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "map iteration accumulates a string with +=: iteration order is randomised, so the string content is too (range over sorted keys instead)")
				return true
			}
			// Compound float updates are order-sensitive at the bit level:
			// float addition is not associative, so a randomised iteration
			// order perturbs the low bits and breaks bit-identical replay.
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if isFloat(pass, n.Lhs[0]) {
					pass.Reportf(n.Pos(), "map iteration accumulates a float with %s: float arithmetic is not associative, so randomised iteration order perturbs the result bits (range over sorted keys instead)", n.Tok)
				}
			}
		}
		return true
	})
}

// appendTarget reports whether call is a builtin append, returning the
// object of the slice being grown when it is a plain identifier.
func appendTarget(pass *Pass, call *ast.CallExpr) (*types.Var, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if obj, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); !ok || obj.Name() != "append" {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, true
	}
	if arg, ok := call.Args[0].(*ast.Ident); ok {
		v, _ := pass.Pkg.Info.Uses[arg].(*types.Var)
		return v, true
	}
	return nil, true
}

// sortedLater reports whether target is passed to a recognised sort call
// somewhere after pos within the enclosing function body.
func sortedLater(pass *Pass, enclosing *ast.BlockStmt, target *types.Var, pos token.Pos) bool {
	if enclosing == nil || target == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		argIdx, ok := sortCalls[pkgID.Name+"."+sel.Sel.Name]
		if !ok || len(call.Args) <= argIdx {
			return true
		}
		if arg, ok := call.Args[argIdx].(*ast.Ident); ok && pass.Pkg.Info.Uses[arg] == target {
			found = true
		}
		return !found
	})
	return found
}

// outputCall reports whether call writes output: an fmt print function or
// a Write*/Print* method on any receiver.
func outputCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if obj, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return "fmt." + name, true
		}
		return "", false
	}
	if pass.Pkg.Info.Selections[sel] == nil {
		return "", false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return name, true
	}
	if strings.HasPrefix(name, "Print") {
		return name, true
	}
	return "", false
}

// rngFeedCall reports whether call is a method call on a *stats.RNG.
func rngFeedCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && isNamed(pass.Pkg.Info.TypeOf(sel.X), "internal/stats", "RNG")
}

// isString reports whether the expression has string type.
func isString(pass *Pass, e ast.Expr) bool {
	return basicInfo(pass, e)&types.IsString != 0
}

// isFloat reports whether the expression has a float or complex type.
func isFloat(pass *Pass, e ast.Expr) bool {
	return basicInfo(pass, e)&(types.IsFloat|types.IsComplex) != 0
}

// rootVar peels selectors, indexing, derefs and parens off an lvalue and
// returns the variable at its root (s in s.Avg, sum in sum[a]), if any.
func rootVar(pass *Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := pass.Pkg.Info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

func basicInfo(pass *Pass, e ast.Expr) types.BasicInfo {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return 0
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	return b.Info()
}
