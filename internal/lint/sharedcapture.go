// sharedcapture is a static companion to -race for the repository's two
// worker-launch shapes: closures handed to parallelFor (internal/ivm's one
// launch point, MaintainAll's view fan-out; internal/algebra launches none)
// and closures launched by `go` statements (parallelFor's own workers, plus
// blessed or suppressed launches elsewhere). The pool contract — "fn must
// confine its side effects to index-owned state" — lives only in a comment;
// -race only catches a violation when a failing schedule actually runs.
// This analyzer fires on the shape alone:
//
//   - a worker closure writing a captured variable (`total += n` folded
//     from many workers is the canonical lost-update);
//   - a worker closure writing a captured map (concurrent map writes
//     fault even without data overlap);
//   - a worker closure writing a captured slice/array element whose index
//     contains no worker-owned state (a parameter or closure-local), so
//     every worker hits the same slot;
//   - a worker closure referencing an iteration variable of an enclosing
//     loop — worker lifetime is not obviously bounded by the iteration,
//     so the read races with the next iteration's update unless the
//     launch site joins first; pass loop state as an argument instead.
//
// Writes through worker-owned state (`out[i] = …`, chunk-local `kf`,
// `route[j]` for a closure-local j) are the blessed kernel discipline and
// stay quiet, as do reads of captured non-loop variables and channel
// operations. Pointer-typed escapes (`*p = …`) and mutation through
// method calls are beyond static reach — that remains -race's half of the
// contract.

package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSharedCapture flags worker closures mutating non-worker-indexed
// shared state or capturing enclosing loop variables.
var AnalyzerSharedCapture = register(&Analyzer{
	Name: "sharedcapture",
	Doc:  "worker closures mutating shared state or capturing loop variables",
	AppliesTo: func(rel string) bool {
		return pathIn(rel, "internal/ivm", "internal/algebra")
	},
	AppliesToTests: func(rel string) bool {
		return pathIn(rel, "internal")
	},
	Run: runSharedCapture,
})

func runSharedCapture(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		loopVars := collectLoopVars(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "parallelFor" {
					for _, arg := range st.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkWorkerLit(pass, lit, loopVars)
						}
					}
				}
			case *ast.GoStmt:
				if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
					checkWorkerLit(pass, lit, loopVars)
				}
			}
			return true
		})
	}
}

// collectLoopVars gathers every object introduced as a for/range iteration
// variable anywhere in the file.
func collectLoopVars(pass *Pass, f *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	def := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt:
			if init, ok := st.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					def(lhs)
				}
			}
		case *ast.RangeStmt:
			def(st.Key)
			def(st.Value)
		}
		return true
	})
	return out
}

// checkWorkerLit applies the shared-state discipline to one worker
// closure.
func checkWorkerLit(pass *Pass, lit *ast.FuncLit, loopVars map[types.Object]bool) {
	// ownedBy reports whether an object is worker-owned: declared inside
	// the closure (parameters and locals both position inside it).
	ownedBy := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	reportedLoopVar := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWorkerWrite(pass, lhs, ownedBy)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, st.X, ownedBy)
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[st]
			if obj != nil && loopVars[obj] && !ownedBy(obj) && !reportedLoopVar[obj] {
				reportedLoopVar[obj] = true
				pass.Reportf(st.Pos(), "worker closure captures iteration variable %q of an enclosing "+
					"loop; pass it as an argument or hoist it to a per-iteration value "+
					"(or annotate with //ivmlint:allow sharedcapture)", st.Name)
			}
		}
		return true
	})
}

// checkWorkerWrite flags one assignment target inside a worker closure if
// it mutates captured state without a worker-owned index.
func checkWorkerWrite(pass *Pass, target ast.Expr, ownedBy func(types.Object) bool) {
	switch t := target.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		obj := pass.ObjectOf(t)
		// Definitions (`:=` introducing the name) are worker-locals by
		// construction; only re-assignments of captured objects race.
		if obj == nil || ownedBy(obj) {
			return
		}
		pass.Reportf(t.Pos(), "worker closure writes captured variable %q; workers may only write "+
			"worker-indexed state, folded after the join "+
			"(or annotate with //ivmlint:allow sharedcapture)", t.Name)
	case *ast.IndexExpr:
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		obj := pass.ObjectOf(root)
		if obj == nil || ownedBy(obj) {
			return
		}
		if _, isMap := typeUnderlying(pass, t.X).(*types.Map); isMap {
			pass.Reportf(t.Pos(), "worker closure writes captured map %q; concurrent map writes fault — "+
				"build worker-local maps and merge after the join "+
				"(or annotate with //ivmlint:allow sharedcapture)", root.Name)
			return
		}
		if !indexUsesOwned(pass, t.Index, ownedBy) {
			pass.Reportf(t.Pos(), "worker closure writes shared %q at an index with no worker-owned "+
				"state; every worker hits the same slot "+
				"(or annotate with //ivmlint:allow sharedcapture)", root.Name)
		}
	case *ast.SelectorExpr:
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		obj := pass.ObjectOf(root)
		if obj == nil || ownedBy(obj) {
			return
		}
		pass.Reportf(t.Pos(), "worker closure writes field %s of captured %q; workers may only write "+
			"worker-indexed state (or annotate with //ivmlint:allow sharedcapture)",
			t.Sel.Name, root.Name)
	}
}

// indexUsesOwned reports whether an index expression references at least
// one worker-owned object — the static stand-in for "this slot belongs to
// this worker".
func indexUsesOwned(pass *Pass, idx ast.Expr, ownedBy func(types.Object) bool) bool {
	found := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Uses[id]; ownedBy(obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent unwraps selector/index/paren/star chains to the base
// identifier (nil when the base is not an identifier, e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}
