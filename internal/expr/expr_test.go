package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"idivm/internal/rel"
)

var testSchema = rel.NewSchema([]string{"a", "b", "s"}, []string{"a"})

func evalOn(t *testing.T, e Expr, tup rel.Tuple) rel.Value {
	t.Helper()
	c, err := Compile(e, testSchema)
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	return c.Eval(tup)
}

func TestComparisons(t *testing.T) {
	tup := rel.Tuple{rel.Int(5), rel.Int(10), rel.String("hi")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Eq(C("a"), IntLit(5)), true},
		{Eq(C("a"), C("b")), false},
		{Ne(C("a"), C("b")), true},
		{Lt(C("a"), C("b")), true},
		{Le(C("a"), IntLit(5)), true},
		{Gt(C("b"), C("a")), true},
		{Ge(C("a"), IntLit(6)), false},
		{Eq(C("s"), StrLit("hi")), true},
		{Ne(C("s"), StrLit("ho")), true},
	}
	for _, c := range cases {
		if got := evalOn(t, c.e, tup).AsBool(); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestNullComparisonsFoldToFalse(t *testing.T) {
	tup := rel.Tuple{rel.Null(), rel.Int(10), rel.String("hi")}
	if evalOn(t, Eq(C("a"), IntLit(5)), tup).AsBool() {
		t.Error("NULL = 5 must be false")
	}
	if evalOn(t, Ne(C("a"), IntLit(5)), tup).AsBool() {
		t.Error("NULL <> 5 must be false (UNKNOWN folds to false)")
	}
	if !evalOn(t, IsNull(C("a")), tup).AsBool() {
		t.Error("a IS NULL must be true")
	}
	if evalOn(t, IsNull(C("b")), tup).AsBool() {
		t.Error("b IS NULL must be false")
	}
}

func TestBooleanConnectives(t *testing.T) {
	tup := rel.Tuple{rel.Int(5), rel.Int(10), rel.String("hi")}
	e := And(Gt(C("a"), IntLit(1)), Lt(C("b"), IntLit(100)))
	if !evalOn(t, e, tup).AsBool() {
		t.Error("AND of two truths must hold")
	}
	e = And(Gt(C("a"), IntLit(1)), Lt(C("b"), IntLit(5)))
	if evalOn(t, e, tup).AsBool() {
		t.Error("AND with one false must fail")
	}
	e = Or(Gt(C("a"), IntLit(100)), Eq(C("s"), StrLit("hi")))
	if !evalOn(t, e, tup).AsBool() {
		t.Error("OR with one truth must hold")
	}
	if evalOn(t, Not(True()), tup).AsBool() {
		t.Error("NOT TRUE must be false")
	}
}

func TestAndFlattening(t *testing.T) {
	e := And(True(), And(Eq(C("a"), IntLit(1)), True()), Eq(C("b"), IntLit(2)))
	cs := Conjuncts(e)
	if len(cs) != 2 {
		t.Fatalf("Conjuncts = %v, want 2 terms", cs)
	}
	if !IsTrueLit(And()) {
		t.Error("empty And must be TRUE")
	}
}

func TestArithmetic(t *testing.T) {
	tup := rel.Tuple{rel.Int(5), rel.Int(10), rel.String("hi")}
	if got := evalOn(t, AddE(C("a"), C("b")), tup); !got.Same(rel.Int(15)) {
		t.Errorf("a+b = %v", got)
	}
	if got := evalOn(t, MulE(SubE(C("b"), C("a")), IntLit(3)), tup); !got.Same(rel.Int(15)) {
		t.Errorf("(b-a)*3 = %v", got)
	}
	if got := evalOn(t, DivE(C("b"), C("a")), tup); !got.Same(rel.Float(2)) {
		t.Errorf("b/a = %v", got)
	}
}

func TestFuncs(t *testing.T) {
	tup := rel.Tuple{rel.Int(-5), rel.Float(2.4), rel.String("Hi")}
	cases := []struct {
		e    Expr
		want rel.Value
	}{
		{Call("abs", C("a")), rel.Int(5)},
		{Call("lower", C("s")), rel.String("hi")},
		{Call("upper", C("s")), rel.String("HI")},
		{Call("length", C("s")), rel.Int(2)},
		{Call("round", C("b")), rel.Float(2)},
		{Call("mod", IntLit(7), IntLit(3)), rel.Int(1)},
		{Call("coalesce", V(rel.Null()), C("a")), rel.Int(-5)},
		{Call("greatest", C("a"), C("b")), rel.Float(2.4)},
		{Call("least", C("a"), C("b")), rel.Int(-5)},
		{Call("concat", C("s"), StrLit("!")), rel.String("Hi!")},
	}
	for _, c := range cases {
		got := evalOn(t, c.e, tup)
		if !got.Same(c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if HasBuiltin("nosuchfn") || !HasBuiltin("ABS") {
		t.Error("HasBuiltin misbehaves")
	}
}

func TestCompileUnknownFunction(t *testing.T) {
	e := AddE(C("a"), Call("nosuchfn", C("b")))
	if _, err := Compile(e, testSchema); err == nil || !strings.Contains(err.Error(), `"nosuchfn"`) {
		t.Errorf("Compile of an unknown function: err = %v, want one naming it", err)
	}
	if _, err := CompilePair(e, testSchema, testSchema); err == nil || !strings.Contains(err.Error(), `"nosuchfn"`) {
		t.Errorf("CompilePair of an unknown function: err = %v, want one naming it", err)
	}
	if _, err := Compile(Call("COALESCE", C("a")), testSchema); err != nil {
		t.Errorf("builtin names are case-insensitive: %v", err)
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	if _, err := Compile(C("nope"), testSchema); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestCols(t *testing.T) {
	e := And(Eq(C("a"), C("b")), Gt(Call("abs", C("a")), IntLit(0)))
	cols := e.Cols()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("Cols = %v", cols)
	}
}

func TestRename(t *testing.T) {
	e := And(Eq(C("x"), C("y")), Gt(AddE(C("x"), IntLit(1)), Call("abs", C("z"))))
	r := Rename(e, map[string]string{"x": "x#pre", "z": "z#pre"})
	cols := r.Cols()
	want := map[string]bool{"x#pre": true, "y": true, "z#pre": true}
	if len(cols) != 3 {
		t.Fatalf("renamed cols = %v", cols)
	}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %q after rename", c)
		}
	}
	// Original untouched.
	for _, c := range e.Cols() {
		if c == "x#pre" {
			t.Error("Rename must not mutate its input")
		}
	}
}

func TestCompilePair(t *testing.T) {
	left := rel.NewSchema([]string{"l.k", "l.v"}, []string{"l.k"})
	right := rel.NewSchema([]string{"r.k", "r.w"}, []string{"r.k"})
	p, err := CompilePair(And(Eq(C("l.k"), C("r.k")), Lt(C("l.v"), C("r.w"))), left, right)
	if err != nil {
		t.Fatal(err)
	}
	lt := rel.Tuple{rel.Int(1), rel.Int(5)}
	rt := rel.Tuple{rel.Int(1), rel.Int(9)}
	if !p.EvalBool(lt, rt) {
		t.Error("pair predicate should hold")
	}
	rt2 := rel.Tuple{rel.Int(2), rel.Int(9)}
	if p.EvalBool(lt, rt2) {
		t.Error("pair predicate should fail on key mismatch")
	}
	if _, err := CompilePair(C("zzz"), left, right); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestEquiPairs(t *testing.T) {
	left := rel.NewSchema([]string{"l.k", "l.v"}, []string{"l.k"})
	right := rel.NewSchema([]string{"r.k", "r.w"}, []string{"r.k"})
	pred := And(Eq(C("l.k"), C("r.k")), Gt(C("r.w"), IntLit(0)))
	lc, rc, res := EquiPairs(pred, left, right)
	if len(lc) != 1 || lc[0] != "l.k" || rc[0] != "r.k" {
		t.Errorf("EquiPairs = %v, %v", lc, rc)
	}
	if IsTrueLit(res) {
		t.Error("residual should retain the non-equi conjunct")
	}
	// Reversed orientation.
	lc, rc, _ = EquiPairs(Eq(C("r.k"), C("l.k")), left, right)
	if len(lc) != 1 || lc[0] != "l.k" || rc[0] != "r.k" {
		t.Errorf("reversed EquiPairs = %v, %v", lc, rc)
	}
}

// Property: And(x, TRUE) is equivalent to x for arbitrary comparisons.
func TestAndTrueIdentity(t *testing.T) {
	f := func(a, b int64) bool {
		tup := rel.Tuple{rel.Int(a), rel.Int(b), rel.String("")}
		e := Lt(C("a"), C("b"))
		c1 := MustCompile(e, testSchema)
		c2 := MustCompile(And(e, True()), testSchema)
		return c1.EvalBool(tup) == c2.EvalBool(tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan — NOT(p AND q) == (NOT p) OR (NOT q) on non-null data.
func TestDeMorgan(t *testing.T) {
	f := func(a, b int64) bool {
		tup := rel.Tuple{rel.Int(a), rel.Int(b), rel.String("")}
		p := Lt(C("a"), C("b"))
		q := Gt(C("a"), IntLit(0))
		lhs := MustCompile(Not(And(p, q)), testSchema)
		rhs := MustCompile(Or(Not(p), Not(q)), testSchema)
		return lhs.EvalBool(tup) == rhs.EvalBool(tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A parameter reads its vector's value when evaluated, so one compiled
// expression runs with each vector set; it compiles only against a vector,
// and EqLiterals takes it as an index-probe value.
func TestParamReadsItsVector(t *testing.T) {
	sch := rel.NewSchema([]string{"a", "b"}, nil)
	e := And(Eq(C("a"), Param{I: 1}), Ne(Param{I: 0}, C("b")))
	if _, err := Compile(e, sch); err == nil || !strings.Contains(err.Error(), "parameter $2") {
		t.Fatalf("a parameter compiled without a vector: %v", err)
	}
	var ps Params
	c, err := ps.Compile(e, sch)
	if err != nil {
		t.Fatal(err)
	}
	row := rel.Tuple{rel.Int(5), rel.String("x")}
	for _, tc := range []struct {
		vals []rel.Value
		want bool
	}{
		{[]rel.Value{rel.String("y"), rel.Int(5)}, true},
		{[]rel.Value{rel.String("y"), rel.Float(5)}, true},
		{[]rel.Value{rel.String("y"), rel.Int(6)}, false},
		{[]rel.Value{rel.String("x"), rel.Int(5)}, false},
	} {
		ps.Set(tc.vals)
		if got := c.EvalBool(row); got != tc.want {
			t.Errorf("params %v: %v, want %v", tc.vals, got, tc.want)
		}
	}
	cols, vals, params, residual := EqLiterals(And(Eq(C("b"), StrLit("x")), e), sch)
	if len(cols) != 2 || cols[1] != "a" || vals[0] != rel.String("x") || len(params) != 1 ||
		params[0] != (ParamAt{At: 1, Param: Param{I: 1}}) || residual.String() != "$1 <> b" {
		t.Fatalf("EqLiterals: %v %v %v %v", cols, vals, params, residual)
	}
}
