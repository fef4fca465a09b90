package algebra

import (
	"testing"

	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// batchNode is a compiled child that returns one prebuilt batch.
type batchNode struct{ b *rel.Batch }

func (n batchNode) run(Env) (*rel.Batch, error) { return n.b, nil }

// TestProjectAllocationsDoNotGrowWithRows pins compiled projection of
// generic items (the γ delta item, notnull, arithmetic, a comparison) to a
// fixed number of allocations per run: the output columns and a scratch row,
// never a per-row one.
func TestProjectAllocationsDoNotGrowWithRows(t *testing.T) {
	d := rel.NewSchema([]string{"k", "pre", "post"}, []string{"k"})
	scan := NewScan("d", "", d)
	p := NewProject(scan, []ProjItem{
		{E: expr.C("d.k"), As: "k"},
		{E: expr.SubE(expr.Call("coalesce", expr.C("d.post"), expr.IntLit(0)),
			expr.Call("coalesce", expr.C("d.pre"), expr.IntLit(0))), As: "delta"},
		{E: expr.Call("notnull", expr.C("d.pre")), As: "cnt"},
		{E: expr.AddE(expr.MulE(expr.C("d.post"), expr.IntLit(2)), expr.C("d.k")), As: "lin"},
		{E: expr.Gt(expr.C("d.post"), expr.C("d.pre")), As: "up"},
	})
	allocs := func(n int) float64 {
		rows := make([]rel.Tuple, n)
		for i := range rows {
			pre := rel.Int(int64(i % 7))
			if i%5 == 0 {
				pre = rel.Null()
			}
			rows[i] = rel.Tuple{rel.Int(int64(i)), pre, rel.Int(int64(i % 11))}
		}
		c, err := compileProject(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.(*cProject).child = batchNode{rel.FromTuples(scan.Schema(), rows)}
		return testing.AllocsPerRun(20, func() {
			if _, err := c.run(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(10000); small != large {
		t.Errorf("compiled projection: %v allocations over 10 rows, %v over 10 000", small, large)
	}
}

// TestSelectAllocationsDoNotGrowWithRows pins compiled σ with a generic
// predicate, over a derived binding and over a stored scan, to a fixed
// number of allocations per run: the kept selection or the kept rows'
// columns, never a per-row one — the selection, the predicate's row and the
// scan's kept rows are the operator's scratch.
func TestSelectAllocationsDoNotGrowWithRows(t *testing.T) {
	d := rel.NewSchema([]string{"k", "pre", "post"}, []string{"k"})
	scan := NewScan("d", "", d)
	pred := expr.And(
		expr.Lt(expr.C("d.pre"), expr.C("d.post")),
		expr.Ne(expr.Call("coalesce", expr.C("d.pre"), expr.IntLit(0)), expr.IntLit(3)))
	rows := func(n int) []rel.Tuple {
		rows := make([]rel.Tuple, n)
		for i := range rows {
			pre := rel.Int(int64(i % 7))
			if i%5 == 0 {
				pre = rel.Null()
			}
			rows[i] = rel.Tuple{rel.Int(int64(i)), pre, rel.Int(int64(i % 11))}
		}
		return rows
	}
	allocs := func(n int, plan Node, env Env, setup func(cNode)) float64 {
		c, err := compileNode(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		setup(c)
		return testing.AllocsPerRun(20, func() {
			b, err := c.run(env)
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 || b.Len() == n {
				t.Fatalf("σ kept %d of %d rows, want a proper subset", b.Len(), n)
			}
		})
	}
	derived := func(n int) float64 {
		return allocs(n, NewSelect(NewRelRef("d", scan.Schema()), pred), nil, func(c cNode) {
			c.(*cSelect).child = batchNode{rel.FromTuples(scan.Schema(), rows(n))}
		})
	}
	stored := func(n int) float64 {
		database := db.New()
		tab := database.MustCreateTable("d", d)
		for _, r := range rows(n) {
			tab.MustInsert(r...)
		}
		return allocs(n, NewSelect(scan, pred), database, func(c cNode) {
			if _, ok := c.(*cStoredSelect); !ok {
				t.Fatalf("σ over a scan compiled to %T, want *cStoredSelect", c)
			}
		})
	}
	for name, count := range map[string]func(int) float64{"derived": derived, "stored": stored} {
		if small, large := count(10), count(10000); small != large {
			t.Errorf("compiled σ over a %s input: %v allocations over 10 rows, %v over 10 000", name, small, large)
		}
	}
}
