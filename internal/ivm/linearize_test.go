package ivm

import (
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

func linDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	a := d.MustCreateTable("a", rel.NewSchema([]string{"k", "x"}, []string{"k"}))
	b := d.MustCreateTable("b", rel.NewSchema([]string{"k", "y"}, []string{"k"}))
	c := d.MustCreateTable("c", rel.NewSchema([]string{"k", "z"}, []string{"k"}))
	for i := int64(0); i < 6; i++ {
		a.MustInsert(rel.Int(i), rel.Int(i*10))
		b.MustInsert(rel.Int(i), rel.Int(i*100))
		c.MustInsert(rel.Int(i), rel.Int(i*1000))
	}
	return d
}

// The linearizer turns a bushy join over a small diff relation into a
// left-deep chain starting at the diff, so evaluation probes one stored
// table at a time.
func TestLinearizeDiffDriven(t *testing.T) {
	d := linDB(t)
	a, _ := d.Table("a")
	b, _ := d.Table("b")
	c, _ := d.Table("c")
	sa := algebra.NewScan("a", "a", a.Schema())
	sb := algebra.NewScan("b", "b", b.Schema())
	sc := algebra.NewScan("c", "c", c.Schema())

	diffSchema := rel.NewSchema([]string{"dk"}, []string{"dk"})
	diffRef := algebra.NewRelRef("diff", diffSchema)

	// Bushy: (a ⋈ b) ⋈ (diff ⋈ c) — the diff sits deep on the right.
	ab := algebra.NewJoin(sa, sb, expr.Eq(expr.C("a.k"), expr.C("b.k")))
	dc := algebra.NewJoin(diffRef, sc, expr.Eq(expr.C("dk"), expr.C("c.k")))
	bushy := algebra.NewJoin(ab, dc, expr.Eq(expr.C("b.k"), expr.C("c.k")))

	lin := MinimizePlan(bushy, nil)

	// Structure: left-deep with the diff at the bottom left.
	j, ok := lin.(*algebra.Join)
	if !ok {
		// linearize may add a column-order projection on top.
		if p, isProj := lin.(*algebra.Project); isProj {
			j, ok = p.Child.(*algebra.Join)
		}
		if !ok {
			t.Fatalf("linearized root = %T", lin)
		}
	}
	depth := 0
	cur := algebra.Node(j)
	for {
		jj, isJoin := cur.(*algebra.Join)
		if !isJoin {
			break
		}
		if _, rightIsJoin := jj.Right.(*algebra.Join); rightIsJoin {
			t.Fatalf("not left-deep: right child is a join")
		}
		depth++
		cur = jj.Left
	}
	if depth != 3 {
		t.Fatalf("join chain depth = %d, want 3", depth)
	}
	if ref, isRef := cur.(*algebra.RelRef); !isRef || ref.Name != "diff" {
		t.Fatalf("chain must start at the diff, got %T %s", cur, cur)
	}

	// Semantics preserved and cost is diff-driven: 2 diff keys → per-table
	// probes only.
	diff := rel.NewRelation(diffSchema)
	diff.Add(rel.Tuple{rel.Int(2)})
	diff.Add(rel.Tuple{rel.Int(4)})
	env := &testEnv{d: d, rels: map[string]*rel.Relation{"diff": diff}}
	d.Counter().Reset()
	got, err := algebra.Eval(lin, env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2", got.Len())
	}
	cost := d.Counter().Total()
	if cost > 16 { // 2 keys × 3 tables × (lookup+read) = 12, plus slack
		t.Fatalf("linearized join should probe, cost = %d", cost)
	}
	// The bushy original, by contrast, scans a and b fully.
	d.Counter().Reset()
	if _, err := algebra.Eval(bushy, env); err != nil {
		t.Fatal(err)
	}
	if bushyCost := d.Counter().Total(); bushyCost <= cost {
		t.Fatalf("bushy cost %d should exceed linearized cost %d", bushyCost, cost)
	}
}

// Single-leaf conjuncts are pushed into selections over their leaf.
func TestLinearizePushesLocalPredicates(t *testing.T) {
	d := linDB(t)
	a, _ := d.Table("a")
	b, _ := d.Table("b")
	c, _ := d.Table("c")
	sa := algebra.NewScan("a", "a", a.Schema())
	sb := algebra.NewScan("b", "b", b.Schema())
	sc := algebra.NewScan("c", "c", c.Schema())

	j := algebra.NewJoin(
		algebra.NewJoin(sa, sb, expr.And(
			expr.Eq(expr.C("a.k"), expr.C("b.k")),
			expr.Gt(expr.C("a.x"), expr.IntLit(10)))),
		sc, expr.Eq(expr.C("b.k"), expr.C("c.k")))
	lin := MinimizePlan(j, nil)

	env := &testEnv{d: d}
	want, err := algebra.Eval(j, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.Eval(lin, env)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sorted().EqualSet(want.Sorted()) {
		t.Fatalf("linearization changed semantics:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
}

// Disconnected leaves degrade to a cross product without losing rows.
func TestLinearizeCrossFallback(t *testing.T) {
	d := linDB(t)
	a, _ := d.Table("a")
	b, _ := d.Table("b")
	c, _ := d.Table("c")
	sa := algebra.NewScan("a", "a", a.Schema())
	sb := algebra.NewScan("b", "b", b.Schema())
	sc := algebra.NewScan("c", "c", c.Schema())

	j := algebra.NewJoin(algebra.NewJoin(sa, sb, expr.True()), sc,
		expr.Eq(expr.C("a.k"), expr.C("c.k")))
	lin := MinimizePlan(j, nil)
	env := &testEnv{d: d}
	want, _ := algebra.Eval(j, env)
	got, err := algebra.Eval(lin, env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("cross fallback: %d vs %d rows", got.Len(), want.Len())
	}
}

type testEnv struct {
	d    *db.Database
	rels map[string]*rel.Relation
}

func (e *testEnv) Table(name string) (*storage.Handle, error) { return e.d.Table(name) }
func (e *testEnv) Bound(name string) (*rel.Binding, error) {
	if r, ok := e.rels[name]; ok {
		return rel.BindRelation(r), nil
	}
	return e.d.Bound(name)
}
