package lint

import (
	"go/parser"
	"go/token"
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

// TestRegistry pins the analyzer suite: all eleven analyzers registered,
// resolvable by name, and the stale pseudo-analyzer deliberately not.
func TestRegistry(t *testing.T) {
	want := []string{"maprange", "deepequal", "bindname", "gostmt", "tabletype",
		"chargepath", "countershard", "sharedcapture", "floatfold", "epochcall", "evalcall"}
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
		{"internal/ivm", false, "bindname chargepath countershard deepequal epochcall evalcall floatfold gostmt maprange sharedcapture tabletype"},
		{"internal/rel", false, "bindname chargepath deepequal"},
		{"internal/rel/epochtest", false, "bindname chargepath deepequal"},
		{"internal/storage", false, "bindname"},
		{"internal/sqlview", false, "bindname chargepath countershard epochcall evalcall maprange tabletype"},
		{"cmd/ivmlint", false, "bindname chargepath countershard epochcall evalcall tabletype"},
		{"benchmark", false, "bindname chargepath countershard tabletype"},
		// Test files run the reduced set: gostmt + sharedcapture inside
		// internal/..., nothing elsewhere.
		{"internal/rel", true, "gostmt sharedcapture"},
		{"internal/ivm", true, "gostmt sharedcapture"},
		{"cmd/ivmlint", true, ""},
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
