package sqlview

import (
	"fmt"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
)

// fuzzCatalog is FuzzParse's fixed catalog: three small keyed tables of
// ints, floats, strings and NULLs. a and b share the column id, a and c
// share g, and b and c share no column name.
func fuzzCatalog() *db.Database {
	d := db.New()
	a := d.MustCreateTable("a", rel.NewSchema([]string{"id", "x", "g"}, []string{"id"}))
	a.MustInsert(rel.Int(1), rel.Int(10), rel.Int(1))
	a.MustInsert(rel.Int(2), rel.Null(), rel.Int(1))
	a.MustInsert(rel.Int(3), rel.Float(2.5), rel.Int(2))
	a.MustInsert(rel.Int(4), rel.Int(40), rel.Null())
	b := d.MustCreateTable("b", rel.NewSchema([]string{"pk", "id", "y"}, []string{"pk"}))
	b.MustInsert(rel.Int(1), rel.Int(1), rel.String("p"))
	b.MustInsert(rel.Int(2), rel.Int(1), rel.Null())
	b.MustInsert(rel.Int(3), rel.Int(3), rel.String("q"))
	b.MustInsert(rel.Int(4), rel.Null(), rel.String("p"))
	c := d.MustCreateTable("c", rel.NewSchema([]string{"g", "name"}, []string{"g"}))
	c.MustInsert(rel.Int(1), rel.String("one"))
	c.MustInsert(rel.Int(2), rel.Null())
	return d
}

// FuzzParse parses arbitrary SQL over fuzzCatalog. Parse must never panic,
// and every plan it accepts must run alike under the Eval oracle and
// compiled: both fail, or both return the same rows in the same order and
// charge the same stored accesses — the invariant of the one physical
// planner (internal/algebra/shape.go). The seed corpus is in
// testdata/fuzz/FuzzParse; `go test` replays it without -fuzz.
func FuzzParse(f *testing.F) {
	d := fuzzCatalog()
	f.Fuzz(func(t *testing.T, sql string) {
		v, err := Parse(sql, d)
		if err != nil {
			return
		}
		d.Counter().Reset()
		want, evalErr := algebra.Eval(v.Plan, d)
		wantCost := *d.Counter()
		d.Counter().Reset()
		p, runErr := algebra.Compile(v.Plan)
		var got *rel.Relation
		if runErr == nil {
			got, runErr = p.Run(d)
		}
		if (evalErr == nil) != (runErr == nil) {
			t.Fatalf("%q: Eval error %v, compiled error %v", sql, evalErr, runErr)
		}
		if evalErr != nil {
			return
		}
		if cost := *d.Counter(); cost != wantCost {
			t.Fatalf("%q: counters differ: Eval %v, compiled %v", sql, wantCost, cost)
		}
		if fmt.Sprint(want.Schema.Attrs) != fmt.Sprint(got.Schema.Attrs) || len(want.Tuples) != len(got.Tuples) {
			t.Fatalf("%q: Eval %v %d rows, compiled %v %d rows", sql, want.Schema.Attrs, len(want.Tuples), got.Schema.Attrs, len(got.Tuples))
		}
		for i, w := range want.Tuples {
			if rel.TupleKey(w) != rel.TupleKey(got.Tuples[i]) {
				t.Fatalf("%q: row %d: Eval %v, compiled %v", sql, i, w, got.Tuples[i])
			}
		}
	})
}
