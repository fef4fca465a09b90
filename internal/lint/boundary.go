// Boundary analyzers: gostmt (goroutine launches outside the blessed
// worker-pool files), tabletype (concrete table references punching through
// the storage boundary), epochcall (epoch lifecycle calls outside the
// one epoch protocol) and evalcall (the interpreted evaluator outside its
// oracle sites).

package lint

import (
	"go/ast"
	"go/types"
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

// epochCalls are the methods that move a table's maintenance epoch.
var epochCalls = map[string]bool{
	"BeginEpoch":    true,
	"EndEpoch":      true,
	"AdvanceEpoch":  true,
	"RollbackEpoch": true,
}

// epochCallFiles are the one file per package above the storage boundary
// that runs the epoch protocol: the catalog opens a logged table's epoch and
// advances every epoch at round end, the IVM system opens the views' and
// caches' epochs and rolls a failed round back.
var epochCallFiles = map[string]string{
	"internal/db":  "db.go",
	"internal/ivm": "system.go",
}

// AnalyzerEpochCall flags calls to BeginEpoch, EndEpoch, AdvanceEpoch and
// RollbackEpoch outside internal/rel, internal/storage and the protocol's
// two files (epochCallFiles). A table enters its epoch once and a round ends
// in an advance or a rollback; an epoch call anywhere else is a second
// lifecycle growing back. Test files are not inspected, and neither is the
// end-to-end benchmark, whose tracer replays MaintainAll's round by hand
// and times the epoch operations themselves.
var AnalyzerEpochCall = register(&Analyzer{
	Name: "epochcall",
	Doc:  "epoch lifecycle calls outside the one epoch protocol",
	AppliesTo: func(rel string) bool {
		return !pathIn(rel, "internal/rel", "internal/storage", "benchmark")
	},
	Run: runEpochCall,
})

func runEpochCall(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if epochCallFiles[pass.Pkg.Rel] == filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !epochCalls[sel.Sel.Name] {
				return true
			}
			if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); !ok || fn.Type().(*types.Signature).Recv() == nil {
				return true
			}
			pass.Reportf(call.Pos(), "%s outside the epoch protocol (internal/db/db.go, internal/ivm/system.go); "+
				"tables enter their epoch once and a round ends in an advance or a rollback "+
				"(or annotate with //ivmlint:allow epochcall)", sel.Sel.Name)
			return true
		})
	}
}

// evalCallFuncs are the oracle sites outside internal/algebra: per package,
// the functions (Type.Method for a method) that may call algebra.Eval — a
// view's recompute check, the executor's Interpret branch and the SDBT
// baseline's recompute.
var evalCallFuncs = map[string]map[string]bool{
	"internal/ivm":  {"System.Recompute": true, "scriptExec.runStep": true},
	"internal/sdbt": {"Recompute": true},
}

// AnalyzerEvalCall flags references to algebra.Eval outside internal/algebra
// and the oracle sites (evalCallFuncs). Production reads and maintenance run
// compiled plans (algebra.Compile); Eval is the oracle they are checked
// against, and a call anywhere else is a second evaluator growing back. Test
// files are not inspected, nor are the packages below algebra, nor the
// end-to-end benchmark, which times Eval beside the compiled path.
var AnalyzerEvalCall = register(&Analyzer{
	Name: "evalcall",
	Doc:  "algebra.Eval outside its oracle sites",
	AppliesTo: func(rel string) bool {
		return !pathIn(rel, "internal/algebra", "internal/rel", "internal/storage", "benchmark")
	},
	Run: runEvalCall,
})

func runEvalCall(pass *Pass) {
	blessed := evalCallFuncs[pass.Pkg.Rel]
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				return !blessed[funcDeclName(fd)]
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Eval" || !isPkgIdent(pass, sel.X, algebraPkgPath) {
				return true
			}
			pass.Reportf(sel.Pos(), "algebra.Eval outside its oracle sites; production plans run "+
				"compiled (algebra.Compile, the serve plan cache) "+
				"(or annotate with //ivmlint:allow evalcall)")
			return true
		})
	}
}

// funcDeclName is a function's name, or Type.Method for a method.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
