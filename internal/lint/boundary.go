// Boundary analyzers ported from ivmlint v1: gostmt (goroutine launches
// outside the blessed worker-pool files) and tabletype (concrete table
// references punching through the storage boundary).

package lint

import (
	"go/ast"
	"path/filepath"
)

// goStmtExemptFiles are the blessed goroutine-launch files: internal/ivm's
// view parallel-for and the serving layer's group-commit dispatcher.
// Everything else — internal/algebra has no launch site at all — must route
// concurrency through them.
var goStmtExemptFiles = map[string]bool{
	"sched.go":    true, // internal/ivm: parallelFor, the view fan-out of MaintainAll
	"dispatch.go": true, // internal/serve: group-commit dispatcher goroutine
}

// AnalyzerGoStmt flags naked `go` statements in the executor packages
// outside the blessed pool files: all maintenance and operator concurrency
// must flow through the bounded worker pools so worker counts stay
// bounded, counter shards stay attributed, and shutdown stays in one
// place. It also runs on the test files of every internal package — a
// naked goroutine in a test can mask exactly the scheduler race the
// production rule exists to prevent.
var AnalyzerGoStmt = register(&Analyzer{
	Name: "gostmt",
	Doc:  "goroutines launched outside the blessed worker-pool files",
	AppliesTo: func(rel string) bool {
		return pathIn(rel, "internal/ivm", "internal/algebra", "internal/serve")
	},
	AppliesToTests: func(rel string) bool {
		return pathIn(rel, "internal")
	},
	Run: runGoStmt,
})

func runGoStmt(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if goStmtExemptFiles[filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(gs.Pos(), "goroutine launched outside the blessed pool files (sched.go, dispatch.go); "+
				"route concurrency through the worker pool "+
				"(or annotate with //ivmlint:allow gostmt)")
			return true
		})
	}
}

// tableTypeForbidden are the rel identifiers that expose the concrete
// table: the type itself and both constructors.
var tableTypeForbidden = map[string]bool{
	"Table":        true,
	"NewTable":     true,
	"MustNewTable": true,
}

// AnalyzerTableType flags references to the concrete table type —
// rel.Table and its constructors — outside internal/rel and
// internal/storage. Everything above the storage boundary must reach
// tables through storage.Engine / storage.Handle so backends stay
// swappable and every access is cost-counted; constructing or
// type-asserting the concrete type punches through that boundary.
var AnalyzerTableType = register(&Analyzer{
	Name: "tabletype",
	Doc:  "concrete rel.Table references outside the storage boundary",
	AppliesTo: func(rel string) bool {
		return !pathIn(rel, "internal/rel", "internal/storage")
	},
	Run: runTableType,
})

func runTableType(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !tableTypeForbidden[sel.Sel.Name] {
				return true
			}
			if !isPkgIdent(pass, sel.X, relPkgPath) {
				return true
			}
			pass.Reportf(sel.Pos(), "concrete table reference rel.%s outside the storage boundary; "+
				"go through storage.Engine / storage.Handle "+
				"(or annotate with //ivmlint:allow tabletype)", sel.Sel.Name)
			return true
		})
	}
}
