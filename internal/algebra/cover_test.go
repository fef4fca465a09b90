package algebra_test

import (
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Direct selection evaluation (not absorbed into an index probe).
func TestSelectEvalStandalone(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sel := algebra.NewSelect(sp, expr.Gt(expr.C("parts.price"), expr.IntLit(15)))
	got := eval(t, sel, d)
	if got.Len() != 1 || got.Tuples[0][0].Text() != "P2" {
		t.Fatalf("selection result = %v", got)
	}
	// Selection over a derived relation (forces evalSelect).
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{}}
	r := rel.NewRelation(rel.NewSchema([]string{"x"}, nil))
	r.Add(rel.Tuple{rel.Int(1)})
	r.Add(rel.Tuple{rel.Int(5)})
	env.rels["r"] = r
	sel2 := algebra.NewSelect(algebra.NewRelRef("r", r.Schema), expr.Lt(expr.C("x"), expr.IntLit(3)))
	if got := eval(t, sel2, env); got.Len() != 1 {
		t.Fatalf("derived selection = %d rows", got.Len())
	}
}

// The probe-left join strategy (stored left, derived right).
func TestJoinProbeLeftStrategy(t *testing.T) {
	d := runningExampleDB(t)
	dp, _ := d.Table("devices_parts")
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	keys := rel.NewRelation(rel.NewSchema([]string{"kpid", "tag"}, nil))
	keys.Add(rel.Tuple{rel.String("P1"), rel.Int(7)})
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": keys}}

	j := algebra.NewJoin(sdp, algebra.NewRelRef("keys", keys.Schema),
		expr.Eq(expr.C("devices_parts.pid"), expr.C("kpid")))
	d.Counter().Reset()
	got := eval(t, j, env)
	if got.Len() != 2 {
		t.Fatalf("probe-left join = %d rows", got.Len())
	}
	c := *d.Counter()
	if c.IndexLookups != 1 || c.TupleReads != 2 {
		t.Fatalf("probe-left join cost = %v", c)
	}
	// Output column order: left attrs then right attrs.
	if got.Schema.Attrs[0] != "devices_parts.did" || got.Schema.Attrs[2] != "kpid" {
		t.Fatalf("column order = %v", got.Schema.Attrs)
	}
}

// Hash join with a residual predicate between two derived inputs.
func TestHashJoinResidual(t *testing.T) {
	d := db.New()
	mk := func(vals ...[2]int64) *rel.Relation {
		r := rel.NewRelation(rel.NewSchema([]string{"k", "v"}, nil))
		for _, kv := range vals {
			r.Add(rel.Tuple{rel.Int(kv[0]), rel.Int(kv[1])})
		}
		return r
	}
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{
		"l": mk([2]int64{1, 5}, [2]int64{2, 50}),
	}}
	rrel := rel.NewRelation(rel.NewSchema([]string{"k2", "w"}, nil))
	rrel.Add(rel.Tuple{rel.Int(1), rel.Int(10)})
	rrel.Add(rel.Tuple{rel.Int(2), rel.Int(10)})
	env.rels["r"] = rrel

	j := algebra.NewJoin(
		algebra.NewRelRef("l", env.rels["l"].Schema),
		algebra.NewRelRef("r", rrel.Schema),
		expr.And(expr.Eq(expr.C("k"), expr.C("k2")), expr.Lt(expr.C("v"), expr.C("w"))))
	got := eval(t, j, env)
	if got.Len() != 1 || !got.Tuples[0][0].Equal(rel.Int(1)) {
		t.Fatalf("hash join residual = %v", got)
	}
}

// Pure cross product (TRUE predicate) between derived inputs.
func TestCrossProduct(t *testing.T) {
	d := db.New()
	a := rel.NewRelation(rel.NewSchema([]string{"x"}, nil))
	a.Add(rel.Tuple{rel.Int(1)})
	a.Add(rel.Tuple{rel.Int(2)})
	b := rel.NewRelation(rel.NewSchema([]string{"y"}, nil))
	b.Add(rel.Tuple{rel.Int(3)})
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"a": a, "b": b}}
	j := algebra.NewJoin(algebra.NewRelRef("a", a.Schema), algebra.NewRelRef("b", b.Schema), nil)
	if got := eval(t, j, env); got.Len() != 2 {
		t.Fatalf("cross = %d rows", got.Len())
	}
}

// EnsureIDs must traverse every operator type.
func TestEnsureIDsAllOperators(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	pred := expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid"))

	plans := []algebra.Node{
		algebra.NewSelect(sp, expr.True()),
		algebra.NewSemiJoin(sp, sdp, pred),
		algebra.NewAntiJoin(sp, sdp, pred),
		algebra.NewUnionAll("b", sp, sp),
		algebra.NewGroupBy(sp, []string{"parts.price"}, nil),
		algebra.NewJoin(sp, sdp, pred),
	}
	for _, p := range plans {
		fixed, err := algebra.EnsureIDs(p)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if len(fixed.Schema().Key) == 0 {
			t.Fatalf("%T: no IDs after pass 1", p)
		}
	}
	// Keyless leaf fails.
	if _, err := algebra.EnsureIDs(algebra.NewRelRef("x", rel.Schema{Attrs: []string{"a"}})); err == nil {
		t.Fatal("keyless leaf must fail pass 1")
	}
	// Error propagation through each wrapper.
	bad := algebra.NewRelRef("x", rel.Schema{Attrs: []string{"a"}})
	wrappers := []algebra.Node{
		algebra.NewSelect(bad, expr.True()),
		&algebra.SemiJoin{Left: bad, Right: sdp, Pred: expr.True()},
		&algebra.SemiJoin{Left: sp, Right: bad, Pred: expr.True(), Anti: true},
		&algebra.GroupBy{Child: bad, Keys: []string{"a"}},
	}
	for _, w := range wrappers {
		if _, err := algebra.EnsureIDs(w); err == nil {
			t.Fatalf("%T: expected pass-1 error", w)
		}
	}
}

// String methods of the remaining node types.
func TestMoreNodeStrings(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "p", parts.Schema())
	aj := algebra.NewAntiJoin(sp, algebra.NewScan("parts", "q", parts.Schema()),
		expr.Eq(expr.C("p.pid"), expr.C("q.pid")))
	if aj.String() == "" || len(aj.Children()) != 2 {
		t.Fatal("antijoin accessors")
	}
	j := algebra.NewJoin(sp, algebra.NewScan("parts", "r", parts.Schema()), nil)
	if j.String() == "" || len(j.Children()) != 2 {
		t.Fatal("join accessors")
	}
	proj := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.AddE(expr.C("p.price"), expr.IntLit(1)), As: "p1"},
	})
	if proj.String() == "" || len(proj.Children()) != 1 {
		t.Fatal("project accessors")
	}
	ref := algebra.NewStoredRef("parts", parts.Schema(), rel.StatePre)
	if ref.String() == "" || ref.Children() != nil {
		t.Fatal("ref accessors")
	}
	e := &algebra.Empty{Sch: parts.Schema()}
	if e.Children() != nil {
		t.Fatal("empty children")
	}
	u := algebra.NewUnionAll("b", sp, sp)
	if u.String() == "" || len(u.Children()) != 2 {
		t.Fatal("union accessors")
	}
	sel := algebra.NewSelect(sp, expr.True())
	if len(sel.Children()) != 1 {
		t.Fatal("select children")
	}
	g := algebra.NewGroupBy(sp, []string{"p.pid"}, []algebra.Agg{{Fn: algebra.AggCount, As: "n"}})
	if len(g.Children()) != 1 {
		t.Fatal("groupby children")
	}
}
