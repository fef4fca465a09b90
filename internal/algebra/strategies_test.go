package algebra_test

import (
	"fmt"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// sizedInput builds n rows (k, g, v): k ascends from 0, g cycles 0..6 and v
// mixes ints, floats and NULLs so typed, degraded and null-marked columns
// all occur at n = 1025.
func sizedInput(n int) []rel.Tuple {
	rows := make([]rel.Tuple, n)
	for i := range rows {
		v := rel.Int(int64(i % 11))
		switch i % 5 {
		case 3:
			v = rel.Float(float64(i) / 4)
		case 4:
			v = rel.Null()
		}
		rows[i] = rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i % 7)), v}
	}
	return rows
}

// strategyPlans covers every compiled strategy over an n-row stored table
// "t" and an n-row binding "in" (same rows), the fixed 3000-row "big" of
// bigDB, and a six-row binding "lim" (five ints and a NULL) for the θ
// strategies. The stacked plans
// put the two row-loop strategies that change the output shape — the
// nested-loop join and semiProbeLeft — above a columnar subtree and below
// one.
func strategyPlans() map[string]algebra.Node {
	sch := rel.NewSchema([]string{"k", "g", "v"}, []string{"k"})
	t := func() algebra.Node { return algebra.NewScan("t", "", sch) }
	big := func() algebra.Node {
		return algebra.NewScan("big", "", rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"}))
	}
	in := func() algebra.Node { return algebra.NewRelRef("in", sch) }
	lim := func() algebra.Node { return algebra.NewRelRef("lim", rel.NewSchema([]string{"x"}, nil)) }
	derivedBig := func() algebra.Node {
		return algebra.NewProject(big(), []algebra.ProjItem{{E: expr.C("big.k"), As: "bk"}, {E: expr.C("big.val"), As: "bv"}})
	}
	lowG := func(n algebra.Node) algebra.Node { return algebra.NewSelect(n, expr.Lt(expr.C("g"), expr.IntLit(5))) }
	aggs := []algebra.Agg{
		{Fn: algebra.AggSum, Arg: expr.C("v"), As: "s"},
		{Fn: algebra.AggCount, As: "n"},
		{Fn: algebra.AggAvg, Arg: expr.C("v"), As: "a"},
		{Fn: algebra.AggMin, Arg: expr.C("v"), As: "lo"},
		{Fn: algebra.AggMax, Arg: expr.C("v"), As: "hi"},
	}
	theta := expr.Lt(expr.C("k"), expr.C("x"))

	return map[string]algebra.Node{
		"scan":          t(),
		"select-index":  algebra.NewSelect(t(), expr.Eq(expr.C("t.k"), expr.IntLit(0))),
		"select-scan":   algebra.NewSelect(t(), expr.Lt(expr.C("t.g"), expr.IntLit(3))),
		"select-all":    algebra.NewSelect(in(), expr.Ge(expr.C("g"), expr.IntLit(0))),
		"select-none":   algebra.NewSelect(in(), expr.Lt(expr.C("g"), expr.IntLit(0))),
		"select-some":   lowG(in()),
		"project":       algebra.NewProject(in(), []algebra.ProjItem{{E: expr.C("v"), As: "v"}, {E: expr.AddE(expr.C("k"), expr.IntLit(1)), As: "k1"}}),
		"union":         algebra.NewUnionAll(in(), lowG(in()), "branch"),
		"join-probe-r":  algebra.NewJoin(in(), big(), expr.Eq(expr.C("k"), expr.C("big.k"))),
		"join-probe-l":  algebra.NewJoin(big(), in(), expr.Eq(expr.C("big.k"), expr.C("k"))),
		"join-hash":     algebra.NewJoin(in(), derivedBig(), expr.Eq(expr.C("k"), expr.C("bk"))),
		"join-hash-rev": algebra.NewJoin(derivedBig(), algebra.NewProject(t(), []algebra.ProjItem{{E: expr.C("t.k"), As: "tk"}}), expr.Eq(expr.C("bk"), expr.C("tk"))),
		"join-nested":   algebra.NewJoin(in(), lim(), theta),
		"semi-probe-l":  algebra.NewSemiJoin(big(), in(), expr.Eq(expr.C("big.k"), expr.C("k"))),
		"semi-probe-r":  algebra.NewSemiJoin(in(), big(), expr.Eq(expr.C("k"), expr.C("big.k"))),
		"anti-probe-r":  algebra.NewAntiJoin(in(), big(), expr.Eq(expr.C("k"), expr.C("big.k"))),
		"semi-hash":     algebra.NewSemiJoin(derivedBig(), in(), expr.Eq(expr.C("bk"), expr.C("k"))),
		"anti-hash":     algebra.NewAntiJoin(derivedBig(), in(), expr.Eq(expr.C("bk"), expr.C("k"))),
		"semi-nested":   algebra.NewSemiJoin(in(), lim(), theta),
		"anti-nested":   algebra.NewAntiJoin(in(), lim(), theta),
		"anti-stored-l": algebra.NewAntiJoin(t(), lim(), expr.Lt(expr.C("t.k"), expr.C("x"))),
		"groupby":       algebra.NewGroupBy(in(), []string{"g"}, aggs),
		"groupby-all":   algebra.NewGroupBy(in(), nil, aggs),
		"stacked-nested": algebra.NewProject(
			algebra.NewSelect(algebra.NewJoin(lowG(in()), lim(), theta), expr.Gt(expr.C("x"), expr.IntLit(1))),
			[]algebra.ProjItem{{E: expr.C("x"), As: "x"}, {E: expr.C("k"), As: "k"}}),
		"stacked-semi-probe-l": algebra.NewGroupBy(
			algebra.NewSelect(
				algebra.NewSemiJoin(big(), lowG(in()), expr.Eq(expr.C("big.k"), expr.C("k"))),
				expr.Gt(expr.C("big.grp"), expr.IntLit(2))),
			[]string{"big.grp"}, []algebra.Agg{{Fn: algebra.AggCount, As: "n"}}),
	}
}

// TestCompiledStrategiesAtInputSizes runs every compiled strategy on 0-,
// 1- and 1025-row inputs on both engines, and requires what Eval
// produces: the same schema, every row at schema width, the same rows in
// the same order, and byte-identical access counters. A zero-row
// short-circuit that hands back a batch of the wrong width, or returns
// before a charged access the oracle makes, fails here.
func TestCompiledStrategiesAtInputSizes(t *testing.T) {
	engines := []struct {
		name string
		mk   func() storage.Engine
	}{{"mem", storage.NewMem}, {"sharded8", func() storage.Engine { return storagetest.Sharded(8) }}}
	limRel := rel.NewRelation(rel.NewSchema([]string{"x"}, nil))
	for _, x := range []int64{-1, 0, 1, 3, 700} {
		limRel.Add(rel.Tuple{rel.Int(x)})
	}
	limRel.Add(rel.Tuple{rel.Null()})
	plans := strategyPlans()

	for _, eng := range engines {
		for _, n := range []int{0, 1, 1025} {
			d := bigDB(t, eng.mk())
			sch := rel.NewSchema([]string{"k", "g", "v"}, []string{"k"})
			tbl := d.MustCreateTable("t", sch)
			rows := sizedInput(n)
			for _, r := range rows {
				tbl.MustInsert(r...)
			}
			env := &bindEnv{Database: d, rels: map[string]*rel.Relation{
				"in":  {Schema: sch, Tuples: rows},
				"lim": limRel,
			}}
			for name, plan := range plans {
				t.Run(fmt.Sprintf("%s/n=%d/%s", eng.name, n, name), func(t *testing.T) {
					checkAgainstEval(t, d, env, plan)
				})
			}
		}
	}
}

// checkAgainstEval compiles plan and compares its run with the interpreted
// oracle: schema, row width, rows in order, access counters.
func checkAgainstEval(t *testing.T, d *db.Database, env algebra.Env, plan algebra.Node) {
	t.Helper()
	compiled, err := algebra.Compile(plan)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d.Counter().Reset()
	want := eval(t, plan, env)
	wantCost := *d.Counter()
	d.Counter().Reset()
	got, err := compiled.Run(env)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if cost := *d.Counter(); cost != wantCost {
		t.Fatalf("counters differ: eval %v, compiled %v", wantCost, cost)
	}
	sameOrderedRelation(t, "compiled", want, got)
	for i, row := range got.Tuples {
		if len(row) != len(got.Schema.Attrs) {
			t.Fatalf("row %d has %d values under a %d-attribute schema", i, len(row), len(got.Schema.Attrs))
		}
	}
}
