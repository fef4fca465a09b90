package algebra_test

import (
	"fmt"
	"math"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// mixedKeys drives hash joins with repeats, misses, a NULL, and a kind
// mix (Int + Float with equal numeric value) so the batch key columns
// degrade to VecAny and the KeyEqual bucket verification is exercised.
func mixedKeys() *rel.Relation {
	sch := rel.NewSchema([]string{"jk"}, nil)
	r := rel.NewRelation(sch)
	for i := 0; i < 2000; i++ {
		switch {
		case i%503 == 0:
			r.Add(rel.Tuple{rel.Null()})
		case i%97 == 0:
			r.Add(rel.Tuple{rel.Float(float64((i * 3) % 3300))}) // KeyEqual to the Int key
		default:
			r.Add(rel.Tuple{rel.Int(int64((i * 3) % 3300))})
		}
	}
	return r
}

// batchPlans compiles a plan set covering every batch kernel: typed and
// degraded filter columns, index-probe vs scan stored selects, aliased
// and computed projections, probe/hash joins with residuals, semi/anti
// joins, int-keyed and encoded-key aggregation, and union-all.
func batchPlans() map[string]algebra.Node {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	scan := func() algebra.Node { return algebra.NewScan("big", "", sch) }
	keySch := rel.NewSchema([]string{"jk"}, nil)
	keys := func() algebra.Node { return algebra.NewRelRef("keys", keySch) }

	return map[string]algebra.Node{
		"scan": scan(),
		"filter-int": algebra.NewSelect(scan(),
			expr.Lt(expr.C("big.grp"), expr.IntLit(7))),
		"filter-flip": algebra.NewSelect(scan(), // literal on the left
			expr.Ge(expr.IntLit(7), expr.C("big.grp"))),
		"filter-mixed-col": algebra.NewSelect(scan(), // val holds Int/Float/NULL → VecAny
			expr.Gt(expr.C("big.val"), expr.FloatLit(40))),
		"filter-conj": algebra.NewSelect(scan(),
			expr.And(
				expr.Lt(expr.C("big.grp"), expr.IntLit(11)),
				expr.Ne(expr.C("big.grp"), expr.IntLit(3)),
				expr.Gt(expr.C("big.k"), expr.IntLit(100)))),
		"filter-rest": algebra.NewSelect(scan(), // col-vs-col conjunct lands in rest
			expr.And(
				expr.Lt(expr.C("big.grp"), expr.IntLit(9)),
				expr.Lt(expr.C("big.grp"), expr.C("big.k")))),
		"probe-select": algebra.NewSelect(scan(), // index probe path
			expr.Eq(expr.C("big.k"), expr.IntLit(42))),
		"project": algebra.NewProject(scan(), []algebra.ProjItem{
			{E: expr.C("big.grp"), As: "g"},
			{E: expr.AddE(expr.C("big.k"), expr.IntLit(1)), As: "k1"},
			{E: expr.C("big.val"), As: "v"},
		}),
		"join-probe": algebra.NewJoin(keys(), scan(),
			expr.Eq(expr.C("jk"), expr.C("big.k"))),
		"join-probe-residual": algebra.NewJoin(keys(), scan(),
			expr.And(
				expr.Eq(expr.C("jk"), expr.C("big.k")),
				expr.Lt(expr.C("big.grp"), expr.IntLit(10)))),
		"join-hash": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.val"), As: "hv"},
			}),
			expr.Eq(expr.C("jk"), expr.C("hk"))),
		"join-hash-residual": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.grp"), As: "hg"},
			}),
			expr.And(
				expr.Eq(expr.C("jk"), expr.C("hk")),
				expr.Ne(expr.C("hg"), expr.IntLit(5)))),
		"semi": algebra.NewSemiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"anti": algebra.NewAntiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"semi-derived": algebra.NewSemiJoin(
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "dk"},
				{E: expr.C("big.val"), As: "dv"},
			}),
			keys(),
			expr.Eq(expr.C("dk"), expr.C("jk"))),
		"groupby-int": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"},
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggAvg, Arg: expr.C("big.val"), As: "a"},
		}),
		"groupby-mixed-key": algebra.NewGroupBy(scan(), []string{"big.val"}, []algebra.Agg{
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggMax, Arg: expr.C("big.k"), As: "m"},
		}),
		"groupby-expr-arg": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.MulE(expr.C("big.k"), expr.IntLit(2)), As: "s2"},
		}),
		"union": algebra.NewUnionAll(
			algebra.NewSelect(scan(), expr.Lt(expr.C("big.grp"), expr.IntLit(4))),
			algebra.NewSelect(scan(), expr.Ge(expr.C("big.grp"), expr.IntLit(11))),
			"branch"),
	}
}

// TestBatchMatchesTupleMode runs every plan through the interpreted
// evaluator (the oracle) and through the compiled plan, on mem and sharded
// backends: rows must match in exact order and the access counters must be
// byte-identical — the columnar kernels are invisible to the cost model.
func TestBatchMatchesTupleMode(t *testing.T) {
	plans := batchPlans()
	engines := map[string]func() storage.Engine{
		"mem":      storage.NewMem,
		"sharded8": func() storage.Engine { return storagetest.Sharded(8) },
	}
	for engName, mk := range engines {
		t.Run(engName, func(t *testing.T) {
			d := bigDB(t, mk())
			base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": mixedKeys()}}
			for name, plan := range plans {
				t.Run(name, func(t *testing.T) { checkAgainstEval(t, d, base, plan) })
			}
		})
	}
}

// TestBatchReuseAcrossRuns re-runs one compiled plan: a compiled plan owns
// scratch, so any of it leaking between runs shows up as drift from the
// interpreted result.
func TestBatchReuseAcrossRuns(t *testing.T) {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	plan := algebra.NewGroupBy(
		algebra.NewJoin(algebra.NewRelRef("keys", rel.NewSchema([]string{"jk"}, nil)),
			algebra.NewScan("big", "", sch),
			expr.Eq(expr.C("jk"), expr.C("big.k"))),
		[]string{"big.grp"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"}})
	compiled, err := algebra.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	d := bigDB(t, storagetest.Sharded(4))
	base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": mixedKeys()}}
	ref, err := algebra.Eval(plan, base)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 6; run++ {
		got, err := compiled.Run(base)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		sameOrderedRelation(t, fmt.Sprintf("run %d", run), ref, got)
	}
}

// TestKeyEqualityAtTheEdgesOfSame runs the kernels that match rows by key
// digest — hash join, hash semijoin/antijoin, γ, and the two sets of the
// semijoin that probes a stored left — over key columns holding the values
// on which Same and the EncodeKey bytes the oracle buckets by disagree or
// nearly do: 2^53 and 2^53+1 (Same, different keys), Float(2^53) (KeyEqual to
// the first only), NaN (Same as every number, a key of its own), -0.0 and 0
// (one key) and NULL. The "ints" column stays a uniform VecInt, which
// Batch.KeyDigests folds without boxing. The -2col plans key on two such
// columns: rows that agree on one of them only must not meet.
func TestKeyEqualityAtTheEdgesOfSame(t *testing.T) {
	const p53 = int64(1) << 53
	keySets := map[string][]rel.Value{
		"mixed": {rel.Int(p53), rel.Int(p53 + 1), rel.Float(float64(p53)), rel.Float(math.NaN()),
			rel.Float(math.Copysign(0, -1)), rel.Int(0), rel.Null(), rel.Float(5)},
		"ints": {rel.Int(p53), rel.Int(p53 + 1), rel.Int(0), rel.Null(), rel.Int(p53 + 1)},
	}
	// The second key column of row i is the edge value two places on, so
	// each first-column key meets several second-column partners.
	side := func(name string, keys []rel.Value) *rel.Relation {
		r := rel.NewRelation(rel.NewSchema([]string{name + "k", name + "v", name + "k2"}, nil))
		for i, k := range keys {
			r.Add(rel.Tuple{k, rel.Int(int64(i)), keys[(i+2)%len(keys)]})
		}
		return r
	}
	l := func() algebra.Node { return algebra.NewRelRef("l", rel.NewSchema([]string{"lk", "lv", "lk2"}, nil)) }
	r := func() algebra.Node { return algebra.NewRelRef("r", rel.NewSchema([]string{"rk", "rv", "rk2"}, nil)) }
	on := expr.Eq(expr.C("lk"), expr.C("rk"))
	on2 := expr.And(on, expr.Eq(expr.C("lk2"), expr.C("rk2")))
	aggs := []algebra.Agg{{Fn: algebra.AggCount, As: "n"}, {Fn: algebra.AggSum, Arg: expr.C("lv"), As: "s"}}
	stSchema := rel.NewSchema([]string{"id", "k", "k2"}, []string{"id"})
	st := func() algebra.Node { return algebra.NewScan("st", "", stSchema) }
	plans := map[string]algebra.Node{
		"join-hash":      algebra.NewJoin(l(), r(), on),
		"semi-hash":      algebra.NewSemiJoin(l(), r(), on),
		"anti-hash":      algebra.NewAntiJoin(l(), r(), on),
		"groupby":        algebra.NewGroupBy(l(), []string{"lk"}, aggs),
		"join-hash-2col": algebra.NewJoin(l(), r(), on2),
		"semi-hash-2col": algebra.NewSemiJoin(l(), r(), on2),
		"anti-hash-2col": algebra.NewAntiJoin(l(), r(), on2),
		"groupby-2col":   algebra.NewGroupBy(l(), []string{"lk", "lk2"}, aggs),
		"semi-probe-l":   algebra.NewSemiJoin(st(), r(), expr.Eq(expr.C("st.k"), expr.C("rk"))),
		"semi-probe-l-2col": algebra.NewSemiJoin(st(), r(),
			expr.And(expr.Eq(expr.C("st.k"), expr.C("rk")), expr.Eq(expr.C("st.k2"), expr.C("rk2")))),
	}
	for setName, keys := range keySets {
		rev := append([]rel.Value(nil), keys...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		// The stored left of the probing semijoin: every key twice, once
		// with the second column of side() and once with another.
		d := db.New()
		stored := d.MustCreateTable("st", stSchema)
		for i, k := range keys {
			stored.MustInsert(rel.Int(int64(2*i)), k, keys[(i+2)%len(keys)])
			stored.MustInsert(rel.Int(int64(2*i+1)), k, keys[(i+3)%len(keys)])
		}
		env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"l": side("l", keys), "r": side("r", rev)}}
		for name, plan := range plans {
			t.Run(setName+"/"+name, func(t *testing.T) { checkAgainstEval(t, d, env, plan) })
		}
	}
}
