// countershard pins the deterministic counter-fold invariant of the
// parallel executor: worker-local rel.CostCounter shards must be folded
// back through the blessed helpers — db.MergeCounter or
// CostCounter.Add/Sub/Reset — whose fields are plain sums, so the fold
// order cannot change totals and a parallel run stays byte-identical to
// the sequential one (DESIGN.md §7). Ad-hoc field arithmetic on a
// counter outside internal/rel and internal/storage reintroduces exactly
// the attribution bugs the shard discipline removed: a hand-written
// `c.TupleReads += n` is an uncharged-by-Handle mutation no differential
// test is pinning.

package lint

import (
	"go/ast"
)

// counterFields are the CostCounter sum fields the blessed fold helpers
// own.
var counterFields = map[string]bool{
	"TupleReads":   true,
	"IndexLookups": true,
	"TupleWrites":  true,
}

// AnalyzerCounterShard flags direct writes to rel.CostCounter fields
// outside internal/rel and internal/storage.
var AnalyzerCounterShard = register(&Analyzer{
	Name: "countershard",
	Doc:  "ad-hoc CostCounter field arithmetic outside the blessed fold helpers",
	AppliesTo: func(rel string) bool {
		return !pathIn(rel, "internal/rel", "internal/storage")
	},
	Run: runCounterShard,
})

func runCounterShard(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkCounterWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkCounterWrite(pass, st.X)
			}
			return true
		})
	}
}

func checkCounterWrite(pass *Pass, target ast.Expr) {
	sel, ok := target.(*ast.SelectorExpr)
	if !ok || !counterFields[sel.Sel.Name] {
		return
	}
	if !isNamed(pass.TypeOf(sel.X), relPkgPath, "CostCounter") {
		return
	}
	pass.Reportf(sel.Pos(), "direct write to CostCounter.%s outside the blessed fold helpers; "+
		"fold shards via db.MergeCounter / CostCounter.Add so parallel merges stay deterministic "+
		"(or annotate with //ivmlint:allow countershard)", sel.Sel.Name)
}
