// chargepath pins the single-charge-point invariant of the storage
// boundary: the paper's Section-6 access-count metric is only meaningful
// if every tuple access is charged exactly once, and the architecture
// guarantees that by making storage.Handle the sole decorator that
// charges (DESIGN.md §9). Two escapes would silently uncount accesses:
//
//   - holding a raw storage.Table (the uncharged backend interface) and
//     calling a charged-shape method on it — statically the value may be
//     a bare backend, so the access is unaccounted unless the caller
//     happens to pass a Handle;
//   - calling Handle.Backend(), which hands out the uncounted backend.
//
// Outside internal/storage (which owns both sides of the boundary), the
// analyzer flags both. Code that legitimately needs a raw table (e.g. a
// catalog registering one) may hold it — only charged-shape calls and
// Backend() escapes are violations.
//
// The columnar batch layer adds a third escape class: the tuple↔batch
// converters (rel.FromTuples, rel.FromRelation, Batch.Materialize) are
// deliberately uncharged — batching must be invisible to the Section-6
// cost model — which is only sound while every tuple they convert already
// flowed through a Handle-charged call. The compiled plans in
// internal/algebra (and internal/rel itself) are the blessed home of that
// pattern — their leaves call FromTuples on rows a Handle just returned,
// rel.Binding converts a step result or a base i-diff instance to its other
// form at most once (the Δ-script executor only ever asks a Binding, it
// calls no converter), and the two nested-loop strategies box their inner
// side with Materialize; a converter call anywhere else is a channel for
// moving tuples around the charge point and is flagged.
//
// Asking a Binding for tuples (Binding.Relation) is the converter behind a
// once-guard, and the analyzer keeps it off the maintenance path too: the
// compute steps and the APPLY statements read columns, so above the kernel
// layer only the sites in relationSites may build a step result's tuples —
// an applied instance's Instance.Tuples, whose caller pays for them, and the
// executor's self-check.

package lint

import (
	"go/ast"
	"go/types"
)

// chargedShape are the Table methods Handle charges for; calling one on a
// raw backend bypasses the cost model.
var chargedShape = map[string]bool{
	"Scan":           true,
	"Get":            true,
	"Lookup":         true,
	"LookupInto":     true,
	"Insert":         true,
	"InsertRow":      true,
	"InsertIfAbsent": true,
	"DeleteKey":      true,
	"DeleteRow":      true,
	"DeleteWhere":    true,
	"UpdateWhere":    true,
	"UpdateKey":      true,
}

// AnalyzerChargePath enforces that every charged storage access flows
// through *storage.Handle.
var AnalyzerChargePath = register(&Analyzer{
	Name: "chargepath",
	Doc:  "storage accesses bypassing the cost-counting Handle decorator",
	AppliesTo: func(rel string) bool {
		return !pathIn(rel, "internal/storage")
	},
	Run: runChargePath,
})

// batchConverters are the uncharged tuple↔batch conversion functions of
// package rel; outside the kernel layer they can smuggle tuples around
// the charge point.
var batchConverters = map[string]bool{
	"FromTuples":   true,
	"FromRelation": true,
}

// batchLayer reports whether the package owns the charged-boundary side
// of the batch converters: the compiled kernels and rel itself.
func batchLayer(rel string) bool {
	return pathIn(rel, "internal/algebra", "internal/rel")
}

// relationSites are, per package above the kernel layer, the functions (Type.
// Method for a method) that may ask a rel.Binding for its tuples.
var relationSites = map[string]map[string]bool{
	"internal/ivm": {"Instance.Tuples": true, "scriptExec.verifyApplied": true},
}

func runChargePath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		relationOK := false // inside one of relationSites
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				relationOK = relationSites[pass.Pkg.Rel][funcDeclName(d)]
			case *ast.GenDecl:
				relationOK = false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pass.Pkg.Info.Selections[sel]
			if !ok {
				// Qualified identifier or untracked selector: the batch
				// converters are package-level rel functions, caught here.
				if batchConverters[sel.Sel.Name] && !batchLayer(pass.Pkg.Rel) &&
					isPkgIdent(pass, sel.X, relPkgPath) {
					pass.Reportf(sel.Pos(), "rel.%s outside the compiled kernel layer: batch conversion "+
						"is uncharged, so tuples that did not arrive through a storage.Handle call "+
						"bypass the cost model; keep converters under internal/algebra "+
						"(or annotate with //ivmlint:allow chargepath)", sel.Sel.Name)
				}
				return true
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return true // field selection
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			recv := sig.Recv().Type()
			switch {
			case sel.Sel.Name == "Backend" && isNamed(recv, storagePkgPath, "Handle"):
				pass.Reportf(sel.Pos(), "Handle.Backend() escapes the charge point: the raw backend "+
					"charges nothing, so accesses through it vanish from the cost model "+
					"(or annotate with //ivmlint:allow chargepath)")
			case chargedShape[sel.Sel.Name] && isNamed(recv, storagePkgPath, "Table"):
				pass.Reportf(sel.Pos(), "%s called on a raw storage.Table, bypassing the cost-counting "+
					"Handle; take a *storage.Handle instead "+
					"(or annotate with //ivmlint:allow chargepath)", sel.Sel.Name)
			case sel.Sel.Name == "Materialize" && !batchLayer(pass.Pkg.Rel) &&
				isNamed(recv, relPkgPath, "Batch"):
				pass.Reportf(sel.Pos(), "Batch.Materialize outside the compiled kernel layer: batch "+
					"materialization is invisible to the cost model, which is only sound where "+
					"inputs are Handle-charged; keep it under internal/algebra "+
					"(or annotate with //ivmlint:allow chargepath)")
			case sel.Sel.Name == "Relation" && !batchLayer(pass.Pkg.Rel) && !relationOK &&
				isNamed(recv, relPkgPath, "Binding"):
				pass.Reportf(sel.Pos(), "Binding.Relation builds a step result's tuples, work the cost "+
					"model never sees; compute steps and APPLY statements read Batch, and only "+
					"Instance.Tuples and the executor's self-check may build tuples "+
					"(or annotate with //ivmlint:allow chargepath)")
			}
			return true
		})
	}
}
