package algebra

import (
	"testing"

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
		c, err := compileProject(p)
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
