package expr

import (
	"strings"
	"testing"

	"idivm/internal/rel"
)

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Eq(C("a"), IntLit(1)), "a = 1"},
		{Ne(C("a"), C("b")), "a <> b"},
		{Lt(C("a"), FloatLit(1.5)), "a < 1.5"},
		{And(Gt(C("a"), IntLit(0)), Le(C("b"), IntLit(9))), "(a > 0) AND (b <= 9)"},
		{Or(Ge(C("a"), IntLit(0)), Not(True())), "(a >= 0) OR (NOT (true))"},
		{AddE(C("a"), MulE(C("b"), IntLit(2))), "(a + (b * 2))"},
		{SubE(C("a"), DivE(C("b"), IntLit(2))), "(a - (b / 2))"},
		{Call("abs", C("x")), "abs(x)"},
		{IsNull(C("x")), "(x) IS NULL"},
		{StrLit("hi"), `"hi"`},
		{V(rel.Null()), "NULL"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestOrEmptyAndSingle(t *testing.T) {
	single := Or(Eq(C("a"), IntLit(1)))
	if _, ok := single.(Cmp); !ok {
		t.Errorf("Or of one term should be the term, got %T", single)
	}
	empty := OrExpr{}
	c := MustCompile(empty, rel.NewSchema([]string{"a"}, nil))
	if c.EvalBool(rel.Tuple{rel.Int(1)}) {
		t.Error("empty OR must be false")
	}
	emptyAnd := AndExpr{}
	c2 := MustCompile(emptyAnd, rel.NewSchema([]string{"a"}, nil))
	if !c2.EvalBool(rel.Tuple{rel.Int(1)}) {
		t.Error("empty AND must be true")
	}
}

func TestSubst(t *testing.T) {
	e := And(
		Eq(C("x"), C("y")),
		Gt(Call("abs", SubE(C("x"), IntLit(3))), IntLit(0)),
		Or(IsNull(C("z")), Not(Lt(C("x"), C("z")))),
	)
	sub := map[string]Expr{"x": AddE(C("a"), C("b"))}
	out := Subst(e, sub)
	cols := out.Cols()
	for _, c := range cols {
		if c == "x" {
			t.Fatalf("x must be substituted away: %v", cols)
		}
	}
	hasA := false
	for _, c := range cols {
		if c == "a" {
			hasA = true
		}
	}
	if !hasA {
		t.Fatalf("substituted expr must reference a: %v", cols)
	}
	// Behavioural equivalence on a sample tuple.
	sch := rel.NewSchema([]string{"a", "b", "y", "z"}, nil)
	tup := rel.Tuple{rel.Int(2), rel.Int(3), rel.Int(5), rel.Int(9)}
	direct := MustCompile(out, sch).EvalBool(tup)
	// Manually: x = 5.
	manual := MustCompile(Subst(e, map[string]Expr{"x": IntLit(5)}), sch).EvalBool(tup)
	if direct != manual {
		t.Fatal("substitution changed semantics")
	}
}

func TestCompilePairSharedNameResolvesLeft(t *testing.T) {
	left := rel.NewSchema([]string{"k"}, nil)
	right := rel.NewSchema([]string{"k"}, nil)
	p, err := CompilePair(Eq(C("k"), IntLit(7)), left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !p.EvalBool(rel.Tuple{rel.Int(7)}, rel.Tuple{rel.Int(0)}) {
		t.Fatal("shared column must resolve to the left side")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile(C("ghost"), rel.NewSchema([]string{"a"}, nil))
}

func TestEquiPairsSharedNames(t *testing.T) {
	// When both schemas contain the column, the pair is still usable.
	left := rel.NewSchema([]string{"k", "v"}, nil)
	right := rel.NewSchema([]string{"k", "w"}, nil)
	lc, rc, _ := EquiPairs(Eq(C("k"), C("w")), left, right)
	if len(lc) != 1 || lc[0] != "k" || rc[0] != "w" {
		t.Fatalf("EquiPairs = %v, %v", lc, rc)
	}
}

func TestRenameUnknownKeptVerbatim(t *testing.T) {
	e := Rename(C("a"), map[string]string{"b": "c"})
	if e.String() != "a" {
		t.Fatalf("unmapped column renamed: %s", e)
	}
	if !strings.Contains(Rename(IsNull(C("b")), map[string]string{"b": "c"}).String(), "c") {
		t.Fatal("mapped column not renamed inside IsNull")
	}
}

func TestFuncsEdgeCases(t *testing.T) {
	tup := rel.Tuple{rel.Int(1), rel.Int(2), rel.String("x")}
	if !evalOn(t, Call("abs", StrLit("x")), tup).IsNull() {
		t.Error("abs of string must be NULL")
	}
	if !evalOn(t, Call("abs"), tup).IsNull() || !evalOn(t, Call("abs", C("a"), C("b")), tup).IsNull() {
		t.Error("abs at the wrong arity must be NULL")
	}
	if !evalOn(t, Call("mod", IntLit(5), IntLit(0)), tup).IsNull() {
		t.Error("mod by zero must be NULL")
	}
	if !evalOn(t, Call("mod", FloatLit(5), IntLit(2)), tup).IsNull() || !evalOn(t, Call("mod", IntLit(5)), tup).IsNull() {
		t.Error("mod of a float, or of one argument, must be NULL")
	}
	if got := evalOn(t, Call("concat", StrLit("a"), IntLit(1)), tup); got.Text() != "a1" {
		t.Errorf("concat mixing types = %v", got)
	}
	if !evalOn(t, Call("concat", StrLit("a"), V(rel.Null())), tup).IsNull() {
		t.Error("concat with NULL must be NULL")
	}
	if !evalOn(t, Call("greatest"), tup).IsNull() {
		t.Error("greatest of nothing is NULL")
	}
	if !evalOn(t, Call("greatest", V(rel.Null()), C("a")), tup).IsNull() {
		t.Error("greatest with a NULL first argument is NULL")
	}
	if got := evalOn(t, Call("notnull", IntLit(1)), tup); !got.Same(rel.Int(1)) {
		t.Errorf("notnull(1) = %v", got)
	}
	if got := evalOn(t, Call("notnull", V(rel.Null())), tup); !got.Same(rel.Int(0)) {
		t.Errorf("notnull(NULL) = %v", got)
	}
	if got := evalOn(t, Call("notnull", C("a"), C("b")), tup); !got.Same(rel.Int(0)) {
		t.Errorf("notnull at arity 2 = %v, want 0", got)
	}
}
