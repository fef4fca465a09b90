package rel

import (
	"fmt"
	"math"
	"testing"
)

// applyShape is a diff batch and a check of the column layout it is named for.
type applyShape struct {
	name  string
	b     *Batch
	check func(b *Batch) bool
}

// applyShapes are diff batches of (k, g, v) rows in the column layouts the
// compiled kernels hand an APPLY: gathered through an Idx vector (a join's or
// filter's selection over a shared payload, with repeats), mixed kinds in one
// column, an all-NULL column, and typed columns with NULLs.
func applyShapes() []applyShape {
	sch := NewSchema([]string{"k", "g", "v"}, nil)
	big := int64(1) << 53
	dense := FromTuples(sch, []Tuple{
		{Int(1), Int(10), String("a")}, {Int(2), Int(20), String("b")},
		{Int(3), Int(10), String("c")}, {Int(4), Int(30), String("d")},
		{Int(big), Int(40), String("e")}, {Int(big + 1), Int(40), String("f")},
	})
	return []applyShape{
		{"Idx", dense.GatherRows([]int32{4, 0, 2, 2, 5, 1}),
			func(b *Batch) bool { return b.Cols[0].Idx != nil && b.Cols[2].Idx != nil }},
		{"Kinds", FromTuples(sch, []Tuple{
			{Int(1), Float(10), Int(7)}, {Float(2), Int(20), String("x")},
			{Int(big + 1), Float(math.NaN()), Null()}, {Float(float64(big)), String("g"), Float(math.Copysign(0, -1))},
			{String("k"), Null(), Bool(true)},
		}), func(b *Batch) bool {
			return b.Cols[0].Kind == VecAny && b.Cols[0].Kinds != nil && b.Cols[2].Kind == VecAny
		}},
		{"VecNull", FromTuples(sch, []Tuple{
			{Int(1), Null(), Null()}, {Int(3), Null(), Null()}, {Int(9), Null(), Null()},
		}), func(b *Batch) bool { return b.Cols[1].Kind == VecNull && b.Cols[2].Kind == VecNull }},
		{"typed with NULLs", FromTuples(sch, []Tuple{
			{Int(2), Int(20), Null()}, {Int(4), Null(), String("z")}, {Int(5), Int(10), String("y")},
		}), func(b *Batch) bool { return b.Cols[1].Kind == VecInt && b.Cols[1].Kinds != nil }},
	}
}

// applySeed returns a (k, g, v) table, key k, with an index on g, holding —
// when seeded — rows that the shapes' keys and groups hit and miss.
func applySeed(t *testing.T, seeded bool) *Table {
	t.Helper()
	tab := MustNewTable("t", NewSchema([]string{"k", "g", "v"}, []string{"k"}))
	big := int64(1) << 53
	for _, row := range []Tuple{
		{Int(1), Int(10), String("a")}, {Int(2), Int(20), String("old")},
		{Int(3), Int(10), String("c")}, {Int(big), Int(40), String("e")},
		{Float(2.5), Float(math.NaN()), Int(1)}, {String("k"), Null(), Int(2)},
		{Int(9), Int(90), Null()}, {Int(5), Int(10), String("y")},
	} {
		if !seeded {
			break
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.Lookup(StatePost, []string{"g"}, []Value{Int(0)}); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestApplyOverColumnsMatchesTuples: each APPLY statement over a batch in
// every layout the kernels produce has the outcome — counts, error, images
// in order, final rows — of the same statement over the same rows laid out
// densely by FromTuples, inside an epoch and out. Deletes and updates run
// against a seeded table, inserts against an empty one, but for the
// key-conflict case: an insert instance whose third row conflicts with a
// stored row, where both stop alike.
func TestApplyOverColumnsMatchesTuples(t *testing.T) {
	statements := []struct {
		name string
		run  func(tab *Table, b *Batch) (int, int, error, []string)
	}{
		{"InsertIfAbsent", func(tab *Table, b *Batch) (int, int, error, []string) {
			var seen []string
			p, n, err := tab.InsertIfAbsent(b, []int{0, 1, 2}, func(post Tuple) { seen = append(seen, post.String()) })
			return p, n, err, seen
		}},
		{"DeleteWhere by g", func(tab *Table, b *Batch) (int, int, error, []string) {
			var seen []string
			p, n, err := tab.DeleteWhere([]string{"g"}, b, []int{1}, func(pre Tuple) { seen = append(seen, pre.String()) })
			return p, n, err, seen
		}},
		{"DeleteWhere by k", func(tab *Table, b *Batch) (int, int, error, []string) {
			var seen []string
			p, n, err := tab.DeleteWhere([]string{"k"}, b, []int{0}, func(pre Tuple) { seen = append(seen, pre.String()) })
			return p, n, err, seen
		}},
		{"UpdateWhere by k", func(tab *Table, b *Batch) (int, int, error, []string) {
			var seen []string
			p, n, err := tab.UpdateWhere([]string{"k"}, b, []int{0}, []string{"g", "v"}, []int{1, 2}, func(pre, post Tuple) {
				seen = append(seen, pre.String()+"→"+post.String())
			})
			return p, n, err, seen
		}},
		{"UpdateWhere by g", func(tab *Table, b *Batch) (int, int, error, []string) {
			var seen []string
			p, n, err := tab.UpdateWhere([]string{"g"}, b, []int{1}, []string{"v"}, []int{2}, func(pre, post Tuple) {
				seen = append(seen, pre.String()+"→"+post.String())
			})
			return p, n, err, seen
		}},
	}
	shapes := applyShapes()
	conflict := FromTuples(shapes[0].b.Schema, []Tuple{
		{Int(7), Int(70), String("new")}, {Int(1), Int(10), String("a")}, // new, identical
		{Int(2), Int(20), String("clash")}, {Int(8), Int(80), String("never")}, // conflicts, after it
	})
	shapes = append(shapes, applyShape{"key conflict", conflict, func(*Batch) bool { return true }})
	for _, sh := range shapes {
		if !sh.check(sh.b) {
			t.Fatalf("%s: the batch does not have the layout it is named for: %+v", sh.name, sh.b.Cols)
		}
		dense := FromTuples(sh.b.Schema, sh.b.Materialize().Tuples)
		for _, st := range statements {
			for _, epoch := range []bool{false, true} {
				outcome := func(b *Batch) string {
					tab := applySeed(t, st.name != "InsertIfAbsent" || sh.name == "key conflict")
					if epoch {
						tab.BeginEpoch()
					}
					p, n, err, seen := st.run(tab, b)
					if err := tab.CheckInvariants(); err != nil {
						t.Fatalf("%s %s: %v", sh.name, st.name, err)
					}
					return fmt.Sprintf("probed %d, affected %d, failed %v, saw %v, post %v, pre %v", p, n, err != nil, seen,
						SortTuples(tab.Rows(StatePost)), SortTuples(tab.Rows(StatePre)))
				}
				got, want := outcome(sh.b), outcome(dense)
				if got != want {
					t.Errorf("%s %s (epoch %v): over the batch\n%s\nover FromTuples\n%s", sh.name, st.name, epoch, got, want)
				}
				if sh.name == "key conflict" && st.name == "InsertIfAbsent" && got[:len("probed 3, affected 1, failed true")] != "probed 3, affected 1, failed true" {
					t.Errorf("key conflict: %s; want it to stop at the third row, having inserted the first", got)
				}
			}
		}
	}
}
