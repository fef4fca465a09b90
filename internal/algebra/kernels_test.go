package algebra_test

import (
	"fmt"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// bigDB builds a 3000-row table: the large-input coverage of every kernel.
// val mixes floats and NULLs so the group-by has to reproduce the oracle's
// exact fold order — float addition is not associative.
func bigDB(t testing.TB, e storage.Engine) *db.Database {
	t.Helper()
	d := db.NewWith(e)
	big := d.MustCreateTable("big", rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"}))
	for i := 0; i < 3000; i++ {
		var v rel.Value
		switch i % 7 {
		case 0:
			v = rel.Null()
		case 1, 2:
			v = rel.Float(float64(i) * 0.3)
		default:
			v = rel.Int(int64(i % 97))
		}
		big.MustInsert(rel.Int(int64(i)), rel.Int(int64(i%13)), v)
	}
	return d
}

// bigKeys returns a derived relation of 2000 join keys (with repeats and a
// NULL) driving the probe and hash kernels.
func bigKeys() *rel.Relation {
	sch := rel.NewSchema([]string{"jk"}, nil)
	r := rel.NewRelation(sch)
	for i := 0; i < 2000; i++ {
		if i%503 == 0 {
			r.Add(rel.Tuple{rel.Null()})
			continue
		}
		r.Add(rel.Tuple{rel.Int(int64((i * 3) % 3300))}) // some miss (k < 3000)
	}
	return r
}

// sameOrderedRelation asserts exact equality including tuple order — the
// kernels' contract with the oracle, stronger than set equality.
func sameOrderedRelation(t *testing.T, label string, a, b *rel.Relation) {
	t.Helper()
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("%s: %d rows != %d rows", label, len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			t.Fatalf("%s: row %d: %v != %v", label, i, a.Tuples[i], b.Tuples[i])
		}
	}
	if fmt.Sprint(a.Schema.Attrs) != fmt.Sprint(b.Schema.Attrs) {
		t.Fatalf("%s: schemas %v != %v", label, a.Schema.Attrs, b.Schema.Attrs)
	}
}

// TestKernelsMatchSequential compiles representative plans over every
// kernel and runs them on the 3000-row inputs, on mem and sharded backends,
// against the interpreted oracle: results must be identical row-for-row, in
// order, and the access counters byte-identical.
func TestKernelsMatchSequential(t *testing.T) {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	scan := func() algebra.Node { return algebra.NewScan("big", "", sch) }
	keySch := rel.NewSchema([]string{"jk"}, nil)
	keys := func() algebra.Node { return algebra.NewRelRef("keys", keySch) }

	plans := map[string]algebra.Node{
		"scan": scan(),
		"scan-filter": algebra.NewSelect(scan(),
			expr.Lt(expr.C("big.grp"), expr.IntLit(7))),
		"join-probe": algebra.NewJoin(keys(), scan(),
			expr.Eq(expr.C("jk"), expr.C("big.k"))),
		"join-hash": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.val"), As: "hv"},
			}),
			expr.Eq(expr.C("jk"), expr.C("hk"))),
		"semi": algebra.NewSemiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"anti": algebra.NewAntiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"groupby": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"},
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggAvg, Arg: expr.C("big.val"), As: "a"},
		}),
	}
	engines := map[string]func() storage.Engine{
		"mem":      storage.NewMem,
		"sharded8": func() storage.Engine { return storage.NewSharded(8) },
	}
	for engName, mk := range engines {
		t.Run(engName, func(t *testing.T) {
			d := bigDB(t, mk())
			base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": bigKeys()}}
			for name, plan := range plans {
				t.Run(name, func(t *testing.T) { checkAgainstEval(t, d, base, plan) })
			}
		})
	}
}

// TestKernelsReuseAcrossRuns re-runs one compiled plan many times: a
// compiled plan owns scratch, so any of it leaking between runs shows up as
// drift.
func TestKernelsReuseAcrossRuns(t *testing.T) {
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
	d := bigDB(t, storage.NewSharded(4))
	base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": bigKeys()}}
	ref, err := compiled.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 6; run++ {
		got, err := compiled.Run(base)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		sameOrderedRelation(t, fmt.Sprintf("run %d", run), ref, got)
	}
}
