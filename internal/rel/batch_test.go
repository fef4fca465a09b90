package rel

import (
	"slices"
	"testing"
)

func batchSchema(t *testing.T) Schema {
	t.Helper()
	return NewSchema([]string{"a", "b", "c"}, []string{"a"})
}

func sampleRows() []Tuple {
	return []Tuple{
		{Int(1), String("x"), Float(1.5)},
		{Int(2), String("y"), Null()},
		{Int(3), Null(), Float(-2)},
		{Int(4), String("z"), Float(0)},
	}
}

// Round-trip through FromTuples/Materialize must reproduce every value
// (Same semantics, including NULLs) in order — within one arena chunk, at
// exactly one chunk, and across a chunk boundary.
func TestBatchRoundTrip(t *testing.T) {
	sch := batchSchema(t)
	if b := FromTuples(sch, sampleRows()); b.Cols[0].Kind != VecInt || b.Cols[1].Kind != VecStr || b.Cols[2].Kind != VecFloat {
		t.Fatalf("kinds = %v %v %v", b.Cols[0].Kind, b.Cols[1].Kind, b.Cols[2].Kind)
	}
	for _, n := range []int{4, materializeChunk, 2*materializeChunk + 3} {
		rows := make([]Tuple, 0, n)
		for len(rows) < n {
			rows = append(rows, sampleRows()...)
		}
		rows = rows[:n]
		b := FromTuples(sch, rows)
		if b.Len() != n {
			t.Fatalf("len = %d, want %d", b.Len(), n)
		}
		out := b.Materialize()
		if len(out.Tuples) != n {
			t.Fatalf("%d rows: %d tuples", n, len(out.Tuples))
		}
		for i, want := range rows {
			if !out.Tuples[i].Equal(want) {
				t.Fatalf("%d rows: row %d = %v, want %v", n, i, out.Tuples[i], want)
			}
		}
	}
}

// Mixed-kind and all-NULL columns must degrade without losing values.
func TestBatchDegradedColumns(t *testing.T) {
	sch := batchSchema(t)
	rows := []Tuple{
		{Int(1), Null(), Int(7)},
		{String("mix"), Null(), Int(8)},
		{Float(2.5), Null(), Bool(true)},
		{Null(), Null(), Null()},
	}
	b := FromTuples(sch, rows)
	if b.Cols[0].Kind != VecAny {
		t.Fatalf("col 0 kind = %v, want VecAny", b.Cols[0].Kind)
	}
	if b.Cols[1].Kind != VecNull {
		t.Fatalf("col 1 kind = %v, want VecNull", b.Cols[1].Kind)
	}
	if b.Cols[2].Kind != VecAny {
		t.Fatalf("col 2 kind = %v, want VecAny", b.Cols[2].Kind)
	}
	out := b.Materialize()
	for i, want := range rows {
		if !out.Tuples[i].Equal(want) {
			t.Fatalf("row %d = %v, want %v", i, out.Tuples[i], want)
		}
	}
	// Null column that later sees a value must backfill typed NULLs.
	var cb ColBuilder
	cb.Append(Null())
	cb.Append(Null())
	cb.Append(Int(5))
	v := cb.Vec()
	if v.Kind != VecInt {
		t.Fatalf("backfilled kind = %v, want VecInt", v.Kind)
	}
	for i, want := range []Value{Null(), Null(), Int(5)} {
		if !v.Value(i).Same(want) {
			t.Fatalf("value %d = %v, want %v", i, v.Value(i), want)
		}
	}
}

// GatherRows must compose chained selections and share payloads; the
// whole-batch Slice is the batch itself.
func TestBatchGather(t *testing.T) {
	sch := batchSchema(t)
	rows := sampleRows()
	b := FromTuples(sch, rows)

	if g := b.Slice(0, b.N); g != b {
		t.Fatalf("whole-batch slice must return the batch unchanged")
	}
	g1 := b.GatherRows([]int32{3, 1, 0})
	wantRows := []Tuple{rows[3], rows[1], rows[0]}
	for i, want := range wantRows {
		got := g1.Row(i, nil)
		if !got.Equal(want) {
			t.Fatalf("g1 row %d = %v, want %v", i, got, want)
		}
	}
	// Chained gather composes indirection (logical rows of g1).
	g2 := g1.GatherRows([]int32{2, 0})
	want2 := []Tuple{rows[0], rows[3]}
	out := g2.Materialize()
	for i, want := range want2 {
		if !out.Tuples[i].Equal(want) {
			t.Fatalf("g2 row %d = %v, want %v", i, out.Tuples[i], want)
		}
	}
	// Payloads are shared, not copied.
	if &g2.Cols[0].Nums[0] != &b.Cols[0].Nums[0] {
		t.Fatalf("gather copied the int payload")
	}
	// Columns sharing one Idx slice compose to one shared vector.
	if &g2.Cols[0].Idx[0] != &g2.Cols[1].Idx[0] {
		t.Fatalf("composed Idx not shared between columns")
	}

	// A batch over more distinct Idx sources than GatherRows' memo holds,
	// two columns per source: every row is composed right, and the columns
	// of a source the memo holds share one composed vector.
	const sources = 2*len(gatherMemo{}.keys) + 1
	payload := []uint64{10, 11, 12, 13, 14, 15}
	wide := &Batch{N: 4}
	for src := 0; src < sources; src++ {
		idx := []int32{int32(src % 6), int32((src + 1) % 6), int32((src + 2) % 6), int32((src + 3) % 6)}
		for k := 0; k < 2; k++ {
			wide.Schema.Attrs = append(wide.Schema.Attrs, string(rune('a'+2*src+k)))
			wide.Cols = append(wide.Cols, ColVec{Kind: VecInt, Nums: payload, Idx: idx})
		}
	}
	sel := []int32{3, 0, 0, 2}
	g3 := wide.GatherRows(sel)
	for j, c := range g3.Cols {
		for i, s := range sel {
			if got, want := c.Value(i), wide.Cols[j].Value(int(s)); !got.Equal(want) {
				t.Fatalf("column %d row %d = %v, want %v", j, i, got, want)
			}
		}
		if src := j / 2; j%2 == 1 && src < len(gatherMemo{}.keys) && &c.Idx[0] != &g3.Cols[j-1].Idx[0] {
			t.Fatalf("source %d: its two columns compose two vectors", src)
		}
	}
}

// Row returns a scratch view that matches the logical tuples.
func TestBatchRowScratch(t *testing.T) {
	sch := batchSchema(t)
	rows := sampleRows()
	b := FromTuples(sch, rows)
	buf := make(Tuple, 0, 3)
	for i, want := range rows {
		got := b.Row(i, buf)
		if !got.Equal(want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}
	empty := NewBatch(sch)
	if empty.Len() != 0 || len(empty.Cols) != 3 {
		t.Fatalf("empty batch: n=%d cols=%d", empty.Len(), len(empty.Cols))
	}
	if out := empty.Materialize(); len(out.Tuples) != 0 {
		t.Fatalf("empty materialize: %d tuples", len(out.Tuples))
	}
}

// A constant column is the column of its value on every row, whatever reads
// it: Value, Row, KeyDigests, Gather and GatherRows (which keep it constant
// without composing an Idx), Slice, AppendVec, Materialize, and the APPLY
// writes, which store what a dense column of the same values stores. Making
// one, and gathering one, allocates nothing.
func TestConstantColumn(t *testing.T) {
	const n = 6
	vals := []Value{Int(-1), String("c"), Float(2.5), Bool(true), Null()}
	attrs := []string{"k", "i", "s", "f", "b", "z"}
	sch := NewSchema(attrs, []string{"k"})
	konst := &Batch{Schema: sch, Cols: make([]ColVec, len(attrs)), N: n}
	var dense []Tuple
	var kb ColBuilder
	for r := 0; r < n; r++ {
		kb.Append(Int(int64(r)))
		dense = append(dense, append(Tuple{Int(int64(r))}, vals...))
	}
	konst.Cols[0] = kb.Vec()
	for j, v := range vals {
		konst.Cols[j+1] = NewConstant(v).Col(n)
	}
	same := func(label string, got *Batch, want []Tuple) {
		t.Helper()
		if got.N != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, got.N, len(want))
		}
		out := got.Materialize()
		for r, w := range want {
			if row := got.Row(r, nil); !row.Equal(w) || !out.Tuples[r].Equal(w) {
				t.Fatalf("%s: row %d = %v (materialized %v), want %v", label, r, row, out.Tuples[r], w)
			}
			for j := range w {
				if got.Cols[j].Value(r).String() != w[j].String() || got.Cols[j].IsNull(r) != w[j].IsNull() {
					t.Fatalf("%s: row %d column %d = %v, want %v", label, r, j, got.Cols[j].Value(r), w[j])
				}
			}
		}
	}
	same("constant", konst, dense)
	want := FromTuples(sch, dense)
	all := []int{0, 1, 2, 3, 4, 5}
	if got, w := konst.KeyDigestsInto(all, nil), want.KeyDigestsInto(all, nil); !slices.Equal(got, w) {
		t.Fatalf("KeyDigestsInto = %v, a dense batch's %v", got, w)
	}
	sel := []int32{5, 2, 2, 0}
	g := konst.GatherRows(sel)
	same("GatherRows", g, []Tuple{dense[5], dense[2], dense[2], dense[0]})
	same("GatherRows, increasing", konst.GatherRows([]int32{1, 4}), []Tuple{dense[1], dense[4]})
	same("Gather of a gather", g.GatherRows([]int32{3, 1}), []Tuple{dense[0], dense[2]})
	same("Slice", konst.Slice(2, 5), dense[2:5])
	for j := 1; j < 5; j++ {
		if c := g.Cols[j]; c.physLen() != 1 || len(c.Idx) != len(sel) {
			t.Fatalf("gathered constant column %d: %d payload positions, Idx %v", j, c.physLen(), c.Idx)
		}
	}
	cat := &Batch{Schema: sch, Cols: make([]ColVec, len(attrs)), N: 2 * n}
	for j := range cat.Cols {
		var cb ColBuilder
		cb.AppendVec(&want.Cols[j], n)
		cb.AppendVec(&konst.Cols[j], n)
		cat.Cols[j] = cb.Vec()
	}
	same("AppendVec", cat, append(append([]Tuple(nil), dense...), dense...))
	if a := testing.AllocsPerRun(20, func() {
		konst.Cols[1] = NewConstant(Int(-1)).Col(n)
		_ = konst.Cols[2].gatherVec(sel, &gatherMemo{})
	}); a != 1 { // NewConstant's one-value payload
		t.Fatalf("a constant column: %v allocations, want only the payload's 1", a)
	}

	// A column longer than the shared zeros gets its own, and the shared
	// ones stay within their bound.
	long := NewConstant(Int(3)).Col(maxZeroIdx + 1)
	if v := long.Value(maxZeroIdx); !v.Equal(Int(3)) {
		t.Fatalf("row %d of a long constant column = %v", maxZeroIdx, v)
	}
	if z := zeroIdx.Load(); z == nil || len(*z) > maxZeroIdx {
		t.Fatalf("the shared zeros are missing or above their bound of %d entries", maxZeroIdx)
	}

	// APPLY: the writes read a constant column as the dense one — an insert,
	// an update setting a column from a constant one, and a delete matching
	// on a constant column, which removes every row.
	apply := func(b *Batch) (kept, left []Tuple) {
		tab, err := NewTable("t", sch)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.InsertIfAbsent(b, all, nil); err != nil {
			t.Fatal(err)
		}
		upd := &Batch{Schema: sch, Cols: []ColVec{b.Cols[0], b.Cols[1]}, N: 3}
		if _, _, err := tab.UpdateWhere([]string{"k"}, upd, []int{0}, []string{"f"}, []int{1}, nil); err != nil {
			t.Fatal(err)
		}
		kept = slices.Clone(tab.Rows(StatePost))
		if _, _, err := tab.DeleteWhere([]string{"i"}, b.Slice(5, 6), []int{1}, nil); err != nil {
			t.Fatal(err)
		}
		return kept, tab.Rows(StatePost)
	}
	got, gotLeft := apply(konst)
	w, wLeft := apply(want)
	if len(got) != n || len(w) != n || len(gotLeft) != 0 || len(wLeft) != 0 {
		t.Fatalf("APPLY: %d rows stored and %d left from the constant batch, %d and %d from the dense one; want %d and 0",
			len(got), len(gotLeft), len(w), len(wLeft), n)
	}
	for i := range w {
		if !got[i].Equal(w[i]) {
			t.Fatalf("APPLY row %d = %v from the constant batch, %v from the dense one", i, got[i], w[i])
		}
	}
}
