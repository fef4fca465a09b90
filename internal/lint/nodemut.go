// nodemut keeps the plan nodes that derive their schema from their
// children's immutable. algebra.Project, Join and UnionAll derive it on the
// first Schema call and keep it, so a field written after construction —
// a child or a union's branch swapped, an item renamed, a branch attribute
// changed — leaves the kept schema describing a node that no longer exists.
// A rewrite builds a new node instead (a composite literal, a constructor
// or algebra.MapChildren). algebra.SemiJoin is not among them: its schema
// is its left child's, whatever its Anti flag says.

package lint

import (
	"go/ast"
	"go/types"
)

// schemaNodes are the algebra node types that keep a derived schema.
var schemaNodes = []string{"Project", "Join", "UnionAll"}

// AnalyzerNodeMut flags assignments to a field of a schema-keeping plan
// node, or to anything reached through one, outside its composite literal.
var AnalyzerNodeMut = register(&Analyzer{
	Name:           "nodemut",
	Doc:            "field writes to a plan node that keeps its derived schema (algebra.Project, Join, UnionAll)",
	AppliesTo:      everywhere,
	AppliesToTests: everywhere,
	Run:            runNodeMut,
})

func runNodeMut(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkNodeWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkNodeWrite(pass, st.X)
			}
			return true
		})
	}
}

// checkNodeWrite walks an assignment target down its selectors, indexes
// and dereferences and reports the first field it selects on a
// schema-keeping node: p.Items, p.Items[i] and p.Items[i].As alike.
func checkNodeWrite(pass *Pass, target ast.Expr) {
	for {
		switch x := target.(type) {
		case *ast.ParenExpr:
			target = x.X
		case *ast.StarExpr:
			target = x.X
		case *ast.IndexExpr:
			target = x.X
		case *ast.SelectorExpr:
			if s, ok := pass.Pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
				if name := schemaNode(pass.TypeOf(x.X)); name != "" {
					pass.Reportf(x.Pos(), "write to algebra.%s.%s after construction leaves its kept schema stale; "+
						"build a new node instead (or annotate with //ivmlint:allow nodemut)", name, x.Sel.Name)
					return
				}
			}
			target = x.X
		default:
			return
		}
	}
}

// schemaNode returns the name of the schema-keeping node type t is (or
// points to), or "".
func schemaNode(t types.Type) string {
	for _, name := range schemaNodes {
		if isNamed(t, algebraPkgPath, name) {
			return name
		}
	}
	return ""
}
