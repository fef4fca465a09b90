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

// strategyPlan is a plan and the strategy it exercises.
type strategyPlan struct {
	strategy string
	plan     algebra.Node
}

// strategyPlans covers every compiled strategy over an n-row stored table
// "t" and an n-row binding "in" (same rows), the fixed 3000-row "big" of
// bigDB, and a six-row binding "lim" (five ints and a NULL) for the θ
// strategies. The stacked plans
// put the two row-loop strategies that change the output shape — the
// nested-loop join and semiProbeLeft — above a columnar subtree and below
// one. Each entry names the strategy its one join, semijoin or antijoin
// exercises (empty for a plan without one), as planJoin/planSemi call it.
func strategyPlans() map[string]strategyPlan {
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

	return map[string]strategyPlan{
		"scan":            {"", t()},
		"select-index":    {"", algebra.NewSelect(t(), expr.Eq(expr.C("t.k"), expr.IntLit(0)))},
		"select-scan":     {"", algebra.NewSelect(t(), expr.Lt(expr.C("t.g"), expr.IntLit(3)))},
		"select-all":      {"", algebra.NewSelect(in(), expr.Ge(expr.C("g"), expr.IntLit(0)))},
		"select-none":     {"", algebra.NewSelect(in(), expr.Lt(expr.C("g"), expr.IntLit(0)))},
		"select-some":     {"", lowG(in())},
		"project":         {"", algebra.NewProject(in(), []algebra.ProjItem{{E: expr.C("v"), As: "v"}, {E: expr.AddE(expr.C("k"), expr.IntLit(1)), As: "k1"}})},
		"union":           {"", algebra.NewUnionAll("branch", in(), lowG(in()))},
		"join-probe-r":    {"joinProbeRight", algebra.NewJoin(in(), big(), expr.Eq(expr.C("k"), expr.C("big.k")))},
		"join-probe-l":    {"joinProbeLeft", algebra.NewJoin(big(), in(), expr.Eq(expr.C("big.k"), expr.C("k")))},
		"join-probe-both": {"joinProbeRight", algebra.NewJoin(t(), big(), expr.Eq(expr.C("t.k"), expr.C("big.k")))},
		"join-hash":       {"joinHash", algebra.NewJoin(in(), derivedBig(), expr.Eq(expr.C("k"), expr.C("bk")))},
		"join-hash-rev":   {"joinHash", algebra.NewJoin(derivedBig(), algebra.NewProject(t(), []algebra.ProjItem{{E: expr.C("t.k"), As: "tk"}}), expr.Eq(expr.C("bk"), expr.C("tk")))},
		"join-nested":     {"joinNested", algebra.NewJoin(in(), lim(), theta)},
		"semi-probe-l":    {"semiProbeLeft", algebra.NewSemiJoin(big(), in(), expr.Eq(expr.C("big.k"), expr.C("k")))},
		"semi-probe-r":    {"semiProbeRight", algebra.NewSemiJoin(in(), big(), expr.Eq(expr.C("k"), expr.C("big.k")))},
		"anti-probe-r":    {"semiProbeRight", algebra.NewAntiJoin(in(), big(), expr.Eq(expr.C("k"), expr.C("big.k")))},
		"semi-hash":       {"semiHash", algebra.NewSemiJoin(derivedBig(), in(), expr.Eq(expr.C("bk"), expr.C("k")))},
		"anti-hash":       {"semiHash", algebra.NewAntiJoin(derivedBig(), in(), expr.Eq(expr.C("bk"), expr.C("k")))},
		"semi-nested":     {"semiNested", algebra.NewSemiJoin(in(), lim(), theta)},
		"anti-nested":     {"semiNested", algebra.NewAntiJoin(in(), lim(), theta)},
		"anti-stored-l":   {"semiNested", algebra.NewAntiJoin(t(), lim(), expr.Lt(expr.C("t.k"), expr.C("x")))},
		"groupby":         {"", algebra.NewGroupBy(in(), []string{"g"}, aggs)},
		"groupby-all":     {"", algebra.NewGroupBy(in(), nil, aggs)},
		"stacked-nested": {"joinNested", algebra.NewProject(
			algebra.NewSelect(algebra.NewJoin(lowG(in()), lim(), theta), expr.Gt(expr.C("x"), expr.IntLit(1))),
			[]algebra.ProjItem{{E: expr.C("x"), As: "x"}, {E: expr.C("k"), As: "k"}})},
		"stacked-semi-probe-l": {"semiProbeLeft", algebra.NewGroupBy(
			algebra.NewSelect(
				algebra.NewSemiJoin(big(), lowG(in()), expr.Eq(expr.C("big.k"), expr.C("k"))),
				expr.Gt(expr.C("big.grp"), expr.IntLit(2))),
			[]string{"big.grp"}, []algebra.Agg{{Fn: algebra.AggCount, As: "n"}})},
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
			for name, sp := range plans {
				t.Run(fmt.Sprintf("%s/n=%d/%s", eng.name, n, name), func(t *testing.T) {
					checkAgainstEval(t, d, env, sp.plan)
				})
			}
		}
	}
}

// TestPlannerPicksNamedStrategies checks that planJoin/planSemi pick the
// strategy each strategyPlans entry is named for, so a planner change that
// moves a plan to another strategy fails here by name and not only through
// changed counters.
func TestPlannerPicksNamedStrategies(t *testing.T) {
	for name, sp := range strategyPlans() {
		var got []string
		algebra.Walk(sp.plan, func(n algebra.Node) {
			if s, ok := n.(interface{ Strategy() string }); ok {
				got = append(got, s.Strategy())
			}
		})
		want := []string{sp.strategy}
		if sp.strategy == "" {
			want = nil
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: planned %v, want %v", name, got, want)
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

// TestRenamedScanPlansLikeScan: Scan.Renamed presents the scan's attributes
// under a suffix and stays the same stored leaf to the planner. Every plan
// below picks the same strategy over the renamed scan as over the plain
// one, never a hash strategy, and charges the same accesses under Compile
// as under Eval, and as the plain plan.
func TestRenamedScanPlansLikeScan(t *testing.T) {
	bigSch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	plain := algebra.NewScan("big", "", bigSch)
	ren := plain.Renamed("@x")
	if got := ren.String(); got != "SCAN big[@x]" {
		t.Errorf("String() = %q", got)
	}
	if got := ren.Schema(); fmt.Sprint(got.Attrs, got.Key) != "[big.k@x big.grp@x big.val@x] [big.k@x]" {
		t.Errorf("schema %v key %v", got.Attrs, got.Key)
	}
	for i, a := range ren.Schema().Attrs {
		if got := ren.BareAttr(a); got != bigSch.Attrs[i] {
			t.Errorf("BareAttr(%q) = %q, want %q", a, got, bigSch.Attrs[i])
		}
	}
	aliased := algebra.NewScan("big", "b", bigSch).Renamed("@x").Renamed("@y")
	if got, bare := aliased.String(), aliased.BareAttr("b.grp@x@y"); got != "SCAN big AS b[@x@y]" || bare != "grp" {
		t.Errorf("aliased, renamed twice: String() = %q, BareAttr = %q", got, bare)
	}

	sch := rel.NewSchema([]string{"k", "g", "v"}, []string{"k"})
	in := algebra.NewRelRef("in", sch)
	// Each plan reads the stored leaf s, whose columns col names.
	plans := map[string]func(s algebra.Node, col func(string) string) algebra.Node{
		"join-probe-r": func(s algebra.Node, col func(string) string) algebra.Node {
			return algebra.NewJoin(in, s, expr.Eq(expr.C("k"), expr.C(col("big.k"))))
		},
		"join-probe-l": func(s algebra.Node, col func(string) string) algebra.Node {
			return algebra.NewJoin(s, in, expr.Eq(expr.C(col("big.k")), expr.C("k")))
		},
		"semi-probe-l": func(s algebra.Node, col func(string) string) algebra.Node {
			return algebra.NewSemiJoin(s, in, expr.Eq(expr.C(col("big.grp")), expr.C("g")))
		},
		"semi-probe-r": func(s algebra.Node, col func(string) string) algebra.Node {
			return algebra.NewSemiJoin(in, s, expr.Eq(expr.C("g"), expr.C(col("big.grp"))))
		},
		"anti-probe-r": func(s algebra.Node, col func(string) string) algebra.Node {
			return algebra.NewAntiJoin(in, s, expr.Eq(expr.C("k"), expr.C(col("big.k"))))
		},
		"select-index": func(s algebra.Node, col func(string) string) algebra.Node {
			return algebra.NewSelect(s, expr.Eq(expr.C(col("big.k")), expr.IntLit(7)))
		},
	}
	d := bigDB(t, storage.NewMem())
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"in": {Schema: sch, Tuples: sizedInput(40)}}}
	strategy := func(n algebra.Node) string {
		if s, ok := n.(interface{ Strategy() string }); ok {
			return s.Strategy()
		}
		return ""
	}
	for name, build := range plans {
		t.Run(name, func(t *testing.T) {
			p := build(plain, func(c string) string { return c })
			r := build(ren, func(c string) string { return c + "@x" })
			if sp, sr := strategy(p), strategy(r); sp != sr || sr == "joinHash" || sr == "semiHash" {
				t.Fatalf("strategy %q over the scan, %q over the renamed scan", sp, sr)
			}
			d.Counter().Reset()
			eval(t, p, env)
			plainCost := *d.Counter()
			checkAgainstEval(t, d, env, r) // leaves the compiled run's counters
			if cost := *d.Counter(); cost != plainCost {
				t.Fatalf("renamed scan charged %v, plain scan %v", cost, plainCost)
			}
		})
	}
}
