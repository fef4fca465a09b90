// Package lint is the repository's pass-based invariant analyzer
// framework — ivmlint v2. It generalizes the original single-file linter
// into an Analyzer registry over a shared type-checked package cache,
// with unified `//ivmlint:allow <analyzer>` suppression handling, stale-
// suppression detection, and text or JSON finding output. Everything is
// built on the standard library's go/ast + go/types only; the module
// stays dependency-free.
//
// An Analyzer encodes one load-bearing invariant of the codebase (charge
// discipline at the storage boundary, deterministic merges in the
// parallel executor, generator determinism, …). Analyzers run per
// package over type-checked syntax; a Pass carries the package under
// inspection and the Reportf sink through which findings flow, so
// suppression bookkeeping lives in exactly one place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one lint violation, positioned at its source location.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

// String renders a finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg)
}

// Analyzer is one registered invariant check. Name doubles as the
// suppression token (`//ivmlint:allow <Name>`); Doc is the one-line
// description surfaced by documentation and the CLI.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo reports whether the analyzer runs on the production files
	// of the package with the given module-relative import path ("" is
	// the module root).
	AppliesTo func(rel string) bool
	// AppliesToTests reports whether the analyzer also runs on the
	// package's _test.go files (the reduced test rule set). nil means the
	// analyzer never inspects test files.
	AppliesToTests func(rel string) bool
	// Run inspects pass.Pkg.Files and reports violations via pass.Reportf.
	Run func(pass *Pass)
}

// Pass is one analyzer's execution over one loaded package variant
// (production files, or the internal/external test files of a package).
type Pass struct {
	An  *Analyzer
	Pkg *Package

	findings *[]Finding
}

// Reportf reports a finding at pos unless an `//ivmlint:allow <name>`
// annotation on the same or the preceding line suppresses it; a matched
// annotation is marked used so stale-suppression detection can tell live
// escapes from dead ones.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppress(p.An.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.An.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of an expression (nil if untracked).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ObjectOf resolves an identifier to its object: its use if it is one, its
// definition otherwise (nil for untracked identifiers like the blank one).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// LintPackage runs the given analyzers over one loaded package variant and
// returns their findings (unsorted; Run and the tests sort globally).
// Suppression usage accumulates on the package, so StaleFindings must be
// consulted only after every intended analyzer has run.
func LintPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, an := range analyzers {
		pass := &Pass{An: an, Pkg: pkg, findings: &out}
		an.Run(pass)
	}
	return out
}

// EnabledFor returns the registered analyzers that apply to the given
// package variant, honoring the reduced test rule set for test files.
func EnabledFor(pkg *Package) []*Analyzer {
	var out []*Analyzer
	for _, an := range Analyzers() {
		if pkg.Test {
			if an.AppliesToTests != nil && an.AppliesToTests(pkg.Rel) {
				out = append(out, an)
			}
			continue
		}
		if an.AppliesTo(pkg.Rel) {
			out = append(out, an)
		}
	}
	return out
}

// registry is the fixed-order analyzer list; order is presentation only
// (findings sort by position).
var registry []*Analyzer

// register appends an analyzer at package init; analyzer files call it.
func register(an *Analyzer) *Analyzer {
	registry = append(registry, an)
	return an
}

// Analyzers returns every registered analyzer in registration order.
func Analyzers() []*Analyzer { return registry }

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, an := range registry {
		if an.Name == name {
			return an
		}
	}
	return nil
}

// pathIn reports whether the module-relative import path rel is pkg or a
// subpackage of pkg — the scope predicate every analyzer is built from.
func pathIn(rel string, pkgs ...string) bool {
	for _, p := range pkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// everywhere is the AppliesTo of module-wide analyzers.
func everywhere(string) bool { return true }

// Well-known module-internal package paths the type-aware analyzers pin
// their checks to.
const (
	algebraPkgPath = "idivm/internal/algebra"
	relPkgPath     = "idivm/internal/rel"
	storagePkgPath = "idivm/internal/storage"
)

// isNamed reports whether t (after pointer unwrapping) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
