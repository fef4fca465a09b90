package sqlview

import (
	"fmt"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// fuzzCatalog is FuzzParse's catalog: three small keyed tables of ints,
// floats, strings and NULLs. a and b share the column id, a and c share g,
// and b and c share no column name.
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

// redefineFuzzCatalog drops each of fuzzCatalog's tables and creates it
// again under the same name with another schema, so that every plan over
// the old catalog differs from the plan of the same SQL over the new one.
func redefineFuzzCatalog(d *db.Database) {
	for _, t := range []struct {
		name string
		cols []string
	}{
		{"a", []string{"id", "g", "z"}},
		{"b", []string{"pk", "y", "id", "w"}},
		{"c", []string{"g", "label"}},
	} {
		d.DropTable(t.name)
		d.MustCreateTable(t.name, rel.NewSchema(t.cols, t.cols[:1]))
	}
}

// uncached is a Catalog without a db.Memo: Parse over it parses in full.
type uncached struct{ Catalog }

// FuzzParse parses arbitrary SQL over fuzzCatalog. Parse must never panic,
// and every plan it accepts must run alike under the Eval oracle and
// compiled: both fail, or both return the same rows in the same order and
// charge the same stored accesses — the invariant of the one physical
// planner (internal/algebra/shape.go). An accepted statement is then parsed
// through the database's shape cache — the fill, a hit, a hit of the same
// shape with other literals, and, once every table has been dropped and
// created again with another schema, the same statement again — and each
// result must be the full parse's: the same view, or the same error. Before
// the tables are redefined, the statement and variants of it with edge
// literals run through Run, which binds each variant's literals into the
// shape's compiled plan: each must return what a fresh compile of the
// variant's full parse and Eval return, or the full parse's error. The seed
// corpus is in testdata/fuzz/FuzzParse; `go test` replays it without -fuzz.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		d := fuzzCatalog()
		v, err := Parse(sql, uncached{d})
		if err != nil {
			return
		}
		checkEvalMatchesCompiled(t, d, sql, v)
		variant := otherLiterals(sql)
		for _, src := range []string{sql, sql, variant} {
			checkShapeCache(t, d, src)
		}
		for _, src := range append([]string{sql}, edgeLiterals(sql)...) {
			checkBoundPlan(t, d, src)
		}
		redefineFuzzCatalog(d)
		checkShapeCache(t, d, sql)
		checkShapeCache(t, d, sql)
	})
}

// outcome is what running a plan gave: its rows, or its error, and the
// stored accesses it charged.
type outcome struct {
	rows *rel.Relation
	err  error
	cost rel.CostCounter
}

// runOn runs fn against d with d's counter reset, and returns its outcome.
func runOn(d *db.Database, fn func() (*rel.Relation, error)) outcome {
	d.Counter().Reset()
	rows, err := fn()
	return outcome{rows: rows, err: err, cost: *d.Counter()}
}

// compiled is the outcome of compiling plan afresh and running it on d.
func compiled(d *db.Database, plan algebra.Node) outcome {
	return runOn(d, func() (*rel.Relation, error) {
		p, err := algebra.Compile(plan)
		if err != nil {
			return nil, err
		}
		return p.Run(d)
	})
}

// evaluated is the outcome of algebra.Eval of plan on d.
func evaluated(d *db.Database, plan algebra.Node) outcome {
	return runOn(d, func() (*rel.Relation, error) { return algebra.Eval(plan, d) })
}

// mustAgree fails unless both outcomes failed, or both returned the same
// rows in the same order and charged the same accesses.
func mustAgree(t *testing.T, sql, what string, want, got outcome) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%q: error %v, %s error %v", sql, want.err, what, got.err)
	}
	if want.err != nil {
		return
	}
	if got.cost != want.cost {
		t.Fatalf("%q: counters differ: %v, %s %v", sql, want.cost, what, got.cost)
	}
	w, g := want.rows, got.rows
	if fmt.Sprint(w.Schema.Attrs) != fmt.Sprint(g.Schema.Attrs) || len(w.Tuples) != len(g.Tuples) {
		t.Fatalf("%q: %v %d rows, %s %v %d rows", sql, w.Schema.Attrs, len(w.Tuples), what, g.Schema.Attrs, len(g.Tuples))
	}
	for i, r := range w.Tuples {
		if rel.TupleKey(r) != rel.TupleKey(g.Tuples[i]) {
			t.Fatalf("%q: row %d: %v, %s %v", sql, i, r, what, g.Tuples[i])
		}
	}
}

func checkEvalMatchesCompiled(t *testing.T, d *db.Database, sql string, v *View) {
	mustAgree(t, sql, "compiled", evaluated(d, v.Plan), compiled(d, v.Plan))
}

// checkBoundPlan runs src through Run and fails unless it returns what a
// fresh compile of src's full parse and Eval return — or, when src does not
// parse, the full parse's error.
func checkBoundPlan(t *testing.T, d *db.Database, src string) {
	t.Helper()
	v, err := Parse(src, uncached{d})
	got := runOn(d, func() (*rel.Relation, error) {
		r, _, err := Run(src, d, rel.StatePost, func(p *algebra.ExecPlan) (*rel.Relation, error) { return p.Run(d) })
		return r, err
	})
	if err != nil {
		if got.err == nil || got.err.Error() != err.Error() {
			t.Fatalf("%q: Run error %v, full parse error %v", src, got.err, err)
		}
		return
	}
	fresh := compiled(d, v.Plan)
	mustAgree(t, src, "bound", fresh, got)
	mustAgree(t, src, "Eval", fresh, evaluated(d, v.Plan))
}

// edgeLiterals returns variants of src with other literals of the same
// kinds: variant j gives the i-th literal the (i+j)-th value of its kind's
// list, so each literal takes every value of its list once. The ints hold 0,
// keys of fuzzCatalog's rows, and 2^63, which is out of range unless a minus
// sign negates it; the floats 0.0 and a stored 2.5; the strings escaped
// quotes, the empty string and a stored value.
func edgeLiterals(src string) []string {
	_, lits, err := scan(src, nil, nil, nil)
	if err != nil || len(lits) == 0 {
		return nil
	}
	edges := map[litKind][]string{
		litInt:    {"0", "3", "9223372036854775808", "1"},
		litFloat:  {"0.0", "2.5", "10.0", "1.5"},
		litString: {"it''s", "", "p", "''''"},
	}
	out := make([]string, 4)
	for j := range out {
		var b strings.Builder
		at := 0
		for i, l := range lits {
			vals := edges[l.kind]
			b.WriteString(src[at:l.start])
			b.WriteString(vals[(i+j)%len(vals)])
			at = l.end
		}
		b.WriteString(src[at:])
		out[j] = b.String()
	}
	return out
}

// checkShapeCache parses src through d's shape cache and in full, and
// fails unless both give the same view or the same error.
func checkShapeCache(t *testing.T, d *db.Database, src string) {
	t.Helper()
	got, gotErr := Parse(src, d)
	want, wantErr := Parse(src, uncached{d})
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: shape cache error %v, full parse error %v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if g, w := describe(got), describe(want); g != w {
		t.Fatalf("%q: shape cache gave\n%s\nthe full parse\n%s", src, g, w)
	}
}

// describe renders a view exactly enough to tell two parses apart: its
// name, its plan, every node's schema and every literal with its kind. It
// fails on a placeholder, which must never leave the package.
func describe(v *View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %s\n", v.Name, v.Plan)
	var lit func(e expr.Expr)
	lit = func(e expr.Expr) {
		switch x := e.(type) {
		case expr.Lit:
			fmt.Fprintf(&b, " %s:%s", x.Val.Kind, x.Val)
		case expr.Cmp:
			lit(x.L)
			lit(x.R)
		case expr.Arith:
			lit(x.L)
			lit(x.R)
		case expr.NotExpr:
			lit(x.E)
		case expr.IsNullExpr:
			lit(x.E)
		case expr.AndExpr:
			for _, e := range x.Terms {
				lit(e)
			}
		case expr.OrExpr:
			for _, e := range x.Terms {
				lit(e)
			}
		case expr.Func:
			for _, e := range x.Args {
				lit(e)
			}
		case expr.Col:
		default:
			fmt.Fprintf(&b, " PLACEHOLDER %T %v", e, e)
		}
	}
	algebra.Walk(v.Plan, func(n algebra.Node) {
		fmt.Fprintf(&b, "%T %v key %v:", n, n.Schema().Attrs, n.Schema().Key)
		switch x := n.(type) {
		case *algebra.Select:
			lit(x.Pred)
		case *algebra.Join:
			lit(x.Pred)
		case *algebra.Project:
			for _, it := range x.Items {
				lit(it.E)
			}
		case *algebra.GroupBy:
			for _, a := range x.Aggs {
				if a.Arg != nil {
					lit(a.Arg)
				}
			}
		}
		b.WriteByte('\n')
	})
	if strings.Contains(b.String(), "PLACEHOLDER") {
		panic("sqlview: a placeholder left the package: " + b.String())
	}
	return b.String()
}

// otherLiterals returns src with every literal replaced by another of its
// kind, each by a different value: the i-th becomes 100+i (or 200+i where
// that is what it was), as an int, a float (100.5+i) or a string ('v100').
func otherLiterals(src string) string {
	_, lits, err := scan(src, nil, nil, nil)
	if err != nil {
		return src
	}
	var b strings.Builder
	at := 0
	for i, l := range lits {
		old, text := src[l.start:l.end], ""
		for n := 100 + i; text == "" || text == old; n += 100 {
			switch l.kind {
			case litInt:
				text = fmt.Sprint(n)
			case litFloat:
				text = fmt.Sprintf("%d.5", n)
			default:
				text = fmt.Sprintf("v%d", n)
			}
		}
		b.WriteString(src[at:l.start])
		b.WriteString(text)
		at = l.end
	}
	b.WriteString(src[at:])
	return b.String()
}
