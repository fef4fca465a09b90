// floatfold pins the non-associative aggregation rule of the parallel
// kernels (DESIGN.md §8): float64 addition is not associative, so SUM and
// AVG over floats are only deterministic when every group folds its inputs
// in original input order. The group-by kernels honor that by routing
// whole groups to one partition and folding slices in input order; what
// would silently break it is accumulating a float (or a rel.Value, whose
// numeric tower includes floats) inside a map-range loop — the iteration
// order, and therefore the fold order and the result bits, would differ
// between runs. Slice-order folds never fire; integer accumulation is
// associative and exempt. The analyzer deliberately fires even inside
// loops blessed with //ivmlint:allow maprange: an order-free loop stops
// being order-free the moment it folds floats.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerFloatFold flags float accumulation under randomized map
// iteration in the kernel and executor packages.
var AnalyzerFloatFold = register(&Analyzer{
	Name: "floatfold",
	Doc:  "float accumulation folded in randomized map-iteration order",
	AppliesTo: func(rel string) bool {
		return pathIn(rel, "internal/ivm", "internal/algebra")
	},
	Run: runFloatFold,
})

func runFloatFold(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := typeUnderlying(pass, rs.X).(*types.Map); !isMap {
				return true
			}
			checkMapFold(pass, rs)
			return true
		})
	}
}

// accumOps are the compound-assignment operators that fold a value into
// an accumulator.
var accumOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

// checkMapFold scans one map-range body for order-sensitive float
// accumulation into state declared outside the loop.
func checkMapFold(pass *Pass, rs *ast.RangeStmt) {
	outside := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := pass.ObjectOf(root)
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End())
	}
	report := func(pos token.Pos) {
		pass.Reportf(pos, "float accumulation in map-iteration order: float addition is not "+
			"associative, so this fold's bits depend on Go's randomized map order; fold in "+
			"input order instead (or annotate with //ivmlint:allow floatfold)")
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			switch {
			case accumOps[st.Tok]:
				if len(st.Lhs) == 1 && floatish(pass.TypeOf(st.Lhs[0])) && outside(st.Lhs[0]) {
					report(st.Pos())
				}
			case st.Tok == token.ASSIGN && len(st.Lhs) == 1:
				// `x = f(x, v)` / `x = x + v` style re-accumulation.
				if floatish(pass.TypeOf(st.Lhs[0])) && outside(st.Lhs[0]) &&
					mentionsObject(pass, st.Rhs[0], rootObject(pass, st.Lhs[0])) {
					report(st.Pos())
				}
			}
		case *ast.IncDecStmt:
			if floatish(pass.TypeOf(st.X)) && outside(st.X) {
				report(st.Pos())
			}
		}
		return true
	})
}

// floatish reports whether t is a floating-point type or rel.Value (whose
// dynamic kinds include floats, and whose Add folds them).
func floatish(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsFloat != 0
	}
	return isNamed(t, relPkgPath, "Value")
}

// rootObject resolves the base identifier of an lvalue chain to its
// object.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	root := rootIdent(e)
	if root == nil {
		return nil
	}
	return pass.ObjectOf(root)
}

// mentionsObject reports whether the expression references the given
// object — the accumulator appearing on its own right-hand side.
func mentionsObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
