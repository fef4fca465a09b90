package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestPathIn(t *testing.T) {
	cases := []struct {
		rel  string
		pkgs []string
		want bool
	}{
		{"internal/ivm", []string{"internal/ivm"}, true},
		{"internal/ivm/sub", []string{"internal/ivm"}, true},
		{"internal/ivmx", []string{"internal/ivm"}, false},
		{"cmd/ivmlint", []string{"internal/ivm", "internal/algebra"}, false},
		{"", []string{"internal"}, false},
	}
	for _, c := range cases {
		if got := pathIn(c.rel, c.pkgs...); got != c.want {
			t.Errorf("pathIn(%q, %v) = %v, want %v", c.rel, c.pkgs, got, c.want)
		}
	}
}

// TestRegistry pins the analyzer suite: all twelve analyzers registered,
// resolvable by name, and the stale pseudo-analyzer deliberately not.
func TestRegistry(t *testing.T) {
	want := []string{"maprange", "deepequal", "bindname", "gostmt", "tabletype",
		"chargepath", "countershard", "sharedcapture", "floatfold", "epochcall", "evalcall", "nodemut"}
	if len(Analyzers()) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(Analyzers()), len(want))
	}
	for _, name := range want {
		if ByName(name) == nil {
			t.Errorf("analyzer %q not registered", name)
		}
	}
	if ByName(StaleAnalyzerName) != nil {
		t.Errorf("%q must not be a registered analyzer — stale findings are unsuppressible", StaleAnalyzerName)
	}
}

// TestEnabledFor pins the scope routing, including the reduced test rule
// set.
func TestEnabledFor(t *testing.T) {
	// Registration order is file-init order — presentation only — so
	// compare sorted name sets.
	names := func(ans []*Analyzer) string {
		var out []string
		for _, an := range ans {
			out = append(out, an.Name)
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	cases := []struct {
		rel  string
		test bool
		want string
	}{
		{"internal/ivm", false, "bindname chargepath countershard deepequal epochcall evalcall floatfold gostmt maprange nodemut sharedcapture tabletype"},
		{"internal/rel", false, "bindname chargepath deepequal nodemut"},
		{"internal/rel/epochtest", false, "bindname chargepath deepequal nodemut"},
		{"internal/storage", false, "bindname nodemut"},
		{"internal/sqlview", false, "bindname chargepath countershard epochcall evalcall maprange nodemut tabletype"},
		{"cmd/ivmlint", false, "bindname chargepath countershard epochcall evalcall nodemut tabletype"},
		{"benchmark", false, "bindname chargepath countershard nodemut tabletype"},
		// Test files run the reduced set: gostmt + sharedcapture inside
		// internal/..., and nodemut everywhere.
		{"internal/rel", true, "gostmt nodemut sharedcapture"},
		{"internal/ivm", true, "gostmt nodemut sharedcapture"},
		{"cmd/ivmlint", true, "nodemut"},
	}
	for _, c := range cases {
		pkg := &Package{Rel: c.rel, Test: c.test}
		if got := names(EnabledFor(pkg)); got != c.want {
			t.Errorf("EnabledFor(%q, test=%v) = %q, want %q", c.rel, c.test, got, c.want)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Analyzer: "maprange",
		Msg:      "boom",
	}
	if got, want := f.String(), "a/b.go:3:7: maprange: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

const suppressionSrc = `package p

func f() int {
	x := 1 //ivmlint:allow maprange — explanation text
	//ivmlint:allow gostmt
	return x
}
`

func TestCollectSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressionSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sups := collectSuppressions(fset, f)
	if len(sups) != 2 {
		t.Fatalf("got %d suppressions, want 2", len(sups))
	}
	// The rule name stops at the first space or dash; trailing prose is
	// free text.
	if sups[0].rule != "maprange" || sups[0].pos.Line != 4 {
		t.Errorf("sups[0] = %q@%d, want maprange@4", sups[0].rule, sups[0].pos.Line)
	}
	if sups[1].rule != "gostmt" || sups[1].pos.Line != 5 {
		t.Errorf("sups[1] = %q@%d, want gostmt@5", sups[1].rule, sups[1].pos.Line)
	}

	pkg := &Package{sups: sups}
	// Same line and next line both match; other lines and rules do not.
	if !pkg.suppress("maprange", token.Position{Filename: "p.go", Line: 4}) {
		t.Error("same-line suppression missed")
	}
	if !pkg.suppress("gostmt", token.Position{Filename: "p.go", Line: 6}) {
		t.Error("next-line suppression missed")
	}
	if pkg.suppress("maprange", token.Position{Filename: "p.go", Line: 6}) {
		t.Error("two lines below must not match")
	}
	if pkg.suppress("maprange", token.Position{Filename: "q.go", Line: 4}) {
		t.Error("other file must not match")
	}
	if pkg.suppress("deepequal", token.Position{Filename: "p.go", Line: 4}) {
		t.Error("other rule must not match")
	}
}

func TestResultJSON(t *testing.T) {
	r := &Result{Root: "/mod"}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]\n" {
		t.Errorf("empty result renders %q, want %q", data, "[]\n")
	}

	r.Findings = []Finding{{
		Pos:      token.Position{Filename: "/mod/a/b.go", Line: 3, Column: 7},
		Analyzer: "maprange",
		Msg:      "boom",
	}}
	data, err = r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"file": "a/b.go"`, `"line": 3`, `"col": 7`, `"analyzer": "maprange"`, `"message": "boom"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON %s missing %q", data, want)
		}
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Analyzer: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 1}, Analyzer: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}, Analyzer: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}, Analyzer: "a"},
	}
	SortFindings(fs)
	want := []string{"a.go:1:5: a: ", "a.go:1:5: x: ", "a.go:2:1: x: ", "b.go:1:1: x: "}
	for i, w := range want {
		if fs[i].String() != w {
			t.Errorf("fs[%d] = %q, want %q", i, fs[i], w)
		}
	}
}

// nodeMutFindings type-checks src as a package importing the module's
// algebra and returns the lines nodemut flags in it.
func nodeMutFindings(t *testing.T, src string) []int {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range LintPackage(pkg, []*Analyzer{AnalyzerNodeMut}) {
		lines = append(lines, f.Pos.Line)
	}
	return lines
}

// TestNodeMutFlagsFieldWrites: a write to a field of π, ⋈ or ∪all — or
// to anything reached through one — is flagged.
func TestNodeMutFlagsFieldWrites(t *testing.T) {
	got := nodeMutFindings(t, `package p

import "idivm/internal/algebra"

func f(p *algebra.Project, j *algebra.Join, u algebra.UnionAll, c algebra.Node) {
	p.Child = c
	p.Items[0].As = "x"
	(*j).Left = c
	u.BranchAttr += "b"
	u.Branches[0] = c
}
`)
	if want := []int{6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("flagged lines %v, want %v", got, want)
	}
}

// TestNodeMutAllowsLiteralsAndSemiJoin: composite literals, reads, the
// semijoin's Anti flag and fields of other types are not flagged.
func TestNodeMutAllowsLiteralsAndSemiJoin(t *testing.T) {
	got := nodeMutFindings(t, `package p

import "idivm/internal/algebra"

type Join struct{ Left int }

func f(l, r algebra.Node, s *algebra.SemiJoin, lj *Join) algebra.Node {
	j := &algebra.Join{Left: l, Right: r, Pred: s.Pred}
	s.Anti = true
	lj.Left = 1
	if j.Left.Schema().Has("x") {
		return j.Right
	}
	return j
}
`)
	if len(got) != 0 {
		t.Errorf("flagged lines %v, want none", got)
	}
}
