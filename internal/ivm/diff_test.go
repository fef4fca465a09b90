package ivm

import (
	"math"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// viewTable builds the running example's view instance of Figure 2,
// wrapped in the cost-counting Handle that Apply/IsEffective require.
func viewTable(t *testing.T) *storage.Handle {
	t.Helper()
	vt := rel.MustNewTable("V", rel.NewSchema([]string{"did", "pid", "price"}, []string{"did", "pid"}))
	vt.MustInsert(rel.String("D1"), rel.String("P1"), rel.Int(10))
	vt.MustInsert(rel.String("D2"), rel.String("P1"), rel.Int(10))
	vt.MustInsert(rel.String("D1"), rel.String("P2"), rel.Int(20))
	return storage.NewHandle(vt)
}

// Example 2.2: a single partial-ID update i-diff tuple updates both P1 rows.
func TestApplyUpdatePartialID(t *testing.T) {
	vt := viewTable(t)
	ds := DiffSchema{Type: DiffUpdate, Rel: "V", IDs: []string{"pid"}, Pre: []string{"price"}, Post: []string{"price"}}
	inst := NewInstance(ds)
	inst.Rows.Add(rel.Tuple{rel.String("P1"), rel.Int(10), rel.Int(11)})

	n, err := inst.Apply(vt)
	if err != nil || n != 2 {
		t.Fatalf("apply: n=%d err=%v", n, err)
	}
	for _, did := range []string{"D1", "D2"} {
		row, ok := vt.Get(rel.StatePost, []rel.Value{rel.String(did), rel.String("P1")})
		if !ok || !row[2].Equal(rel.Int(11)) {
			t.Errorf("%s/P1 = %v", did, row)
		}
	}
	row, _ := vt.Get(rel.StatePost, []rel.Value{rel.String("D1"), rel.String("P2")})
	if !row[2].Equal(rel.Int(20)) {
		t.Error("P2 must be untouched")
	}
}

// A dummy diff tuple (overestimation) matches nothing and costs only its
// index lookup — the overestimation cost model of Section 1.
func TestApplyUpdateDummyTupleCost(t *testing.T) {
	h := viewTable(t)
	var c rel.CostCounter
	h.SetCounter(&c)
	ds := DiffSchema{Type: DiffUpdate, Rel: "V", IDs: []string{"pid"}, Post: []string{"price"}}
	inst := NewInstance(ds)
	inst.Rows.Add(rel.Tuple{rel.String("P9"), rel.Int(99)})
	n, err := inst.Apply(h)
	if err != nil || n != 0 {
		t.Fatalf("dummy apply: n=%d err=%v", n, err)
	}
	if c.IndexLookups != 1 || c.TupleWrites != 0 {
		t.Errorf("dummy tuple should cost exactly one lookup, got %v", c)
	}
}

// Example 2.3: insert i-diffs skip rows that already exist identically.
func TestApplyInsert(t *testing.T) {
	vt := viewTable(t)
	ds := DiffSchema{Type: DiffInsert, Rel: "V", IDs: []string{"did", "pid"}, Post: []string{"price"}}
	inst := NewInstance(ds)
	inst.Rows.Add(rel.Tuple{rel.String("D3"), rel.String("P2"), rel.Int(20)})
	inst.Rows.Add(rel.Tuple{rel.String("D1"), rel.String("P1"), rel.Int(10)}) // already present
	n, err := inst.Apply(vt)
	if err != nil || n != 1 {
		t.Fatalf("insert apply: n=%d err=%v", n, err)
	}
	if vt.Len() != 4 {
		t.Fatalf("len = %d", vt.Len())
	}
	// A key conflict with different values is a non-effective diff: error.
	bad := NewInstance(ds)
	bad.Rows.Add(rel.Tuple{rel.String("D1"), rel.String("P1"), rel.Int(99)})
	if _, err := bad.Apply(vt); err == nil {
		t.Fatal("conflicting insert must error")
	}
}

func TestApplyInsertRequiresFullKey(t *testing.T) {
	vt := viewTable(t)
	ds := DiffSchema{Type: DiffInsert, Rel: "V", IDs: []string{"pid"}, Post: []string{"price"}}
	inst := NewInstance(ds)
	inst.Rows.Add(rel.Tuple{rel.String("P7"), rel.Int(1)})
	if _, err := inst.Apply(vt); err == nil {
		t.Fatal("insert with partial IDs must error")
	}
}

// Example 2.4: a partial-ID delete removes every matching row.
func TestApplyDeletePartialID(t *testing.T) {
	vt := viewTable(t)
	ds := DiffSchema{Type: DiffDelete, Rel: "V", IDs: []string{"pid"}, Pre: []string{"price"}}
	inst := NewInstance(ds)
	inst.Rows.Add(rel.Tuple{rel.String("P1"), rel.Int(10)})
	n, err := inst.Apply(vt)
	if err != nil || n != 2 {
		t.Fatalf("delete apply: n=%d err=%v", n, err)
	}
	if vt.Len() != 1 {
		t.Fatalf("len = %d", vt.Len())
	}
}

func TestDiffRelSchema(t *testing.T) {
	ds := DiffSchema{Type: DiffUpdate, Rel: "V", IDs: []string{"pid"}, Pre: []string{"price"}, Post: []string{"price"}}
	s := ds.RelSchema()
	want := []string{"pid", "price#pre", "price#post"}
	if len(s.Attrs) != 3 {
		t.Fatalf("attrs = %v", s.Attrs)
	}
	for i, a := range want {
		if s.Attrs[i] != a {
			t.Errorf("attr %d = %q, want %q", i, s.Attrs[i], a)
		}
	}
	if len(s.Key) != 1 || s.Key[0] != "pid" {
		t.Errorf("key = %v", s.Key)
	}
}

func TestIsEffective(t *testing.T) {
	vt := viewTable(t)
	// Effective update: values match the post state.
	upd := NewInstance(DiffSchema{Type: DiffUpdate, Rel: "V", IDs: []string{"pid"}, Post: []string{"price"}})
	upd.Rows.Add(rel.Tuple{rel.String("P1"), rel.Int(10)})
	if ok, err := upd.IsEffective(vt); err != nil || !ok {
		t.Fatalf("matching update should be effective: ok=%v err=%v", ok, err)
	}
	// Non-effective update: stale post value.
	upd2 := NewInstance(DiffSchema{Type: DiffUpdate, Rel: "V", IDs: []string{"pid"}, Post: []string{"price"}})
	upd2.Rows.Add(rel.Tuple{rel.String("P1"), rel.Int(77)})
	if ok, _ := upd2.IsEffective(vt); ok {
		t.Fatal("stale update must not be effective")
	}
	// Effective delete: the row is gone.
	del := NewInstance(DiffSchema{Type: DiffDelete, Rel: "V", IDs: []string{"pid"}})
	del.Rows.Add(rel.Tuple{rel.String("P9")})
	if ok, _ := del.IsEffective(vt); !ok {
		t.Fatal("delete of a missing row is effective")
	}
	del2 := NewInstance(DiffSchema{Type: DiffDelete, Rel: "V", IDs: []string{"pid"}})
	del2.Rows.Add(rel.Tuple{rel.String("P2")})
	if ok, _ := del2.IsEffective(vt); ok {
		t.Fatal("delete of a live row is not effective")
	}
	// Inserts.
	ins := NewInstance(DiffSchema{Type: DiffInsert, Rel: "V", IDs: []string{"did", "pid"}, Post: []string{"price"}})
	ins.Rows.Add(rel.Tuple{rel.String("D1"), rel.String("P1"), rel.Int(10)})
	if ok, _ := ins.IsEffective(vt); !ok {
		t.Fatal("insert of an existing identical row is effective")
	}
	ins2 := NewInstance(DiffSchema{Type: DiffInsert, Rel: "V", IDs: []string{"did", "pid"}, Post: []string{"price"}})
	ins2.Rows.Add(rel.Tuple{rel.String("D9"), rel.String("P9"), rel.Int(1)})
	if ok, _ := ins2.IsEffective(vt); ok {
		t.Fatal("insert of an absent row is not effective (not in post state)")
	}
}

// TestIsEffectiveComparesUnderKeyEqual: a stored value and a diff's post
// value agree only when they are KeyEqual, the equality stored rows are told
// apart by. Same compares numerics through float64 and would call an update
// to 2^53+1 over a stored 2^53, or to NaN over 1, effective.
func TestIsEffectiveComparesUnderKeyEqual(t *testing.T) {
	const p53 = int64(1) << 53
	for _, c := range []struct {
		stored, post rel.Value
		effective    bool
	}{
		{rel.Int(p53), rel.Int(p53 + 1), false},
		{rel.Int(p53 + 1), rel.Int(p53), false},
		{rel.Int(1), rel.Float(math.NaN()), false},
		{rel.Float(math.NaN()), rel.Float(math.NaN()), true},
		{rel.Int(p53), rel.Int(p53), true},
		{rel.Int(1), rel.Float(1), true},
	} {
		for _, typ := range []DiffType{DiffUpdate, DiffInsert} {
			vt := rel.MustNewTable("V", rel.NewSchema([]string{"k", "v"}, []string{"k"}))
			vt.MustInsert(rel.Int(1), c.stored)
			inst := NewInstance(DiffSchema{Type: typ, Rel: "V", IDs: []string{"k"}, Post: []string{"v"}})
			inst.Rows.Add(rel.Tuple{rel.Int(1), c.post})
			if ok, err := inst.IsEffective(storage.NewHandle(vt)); err != nil || ok != c.effective {
				t.Errorf("%s over stored %v, post %v: effective = %v (err %v), want %v",
					typ, c.stored, c.post, ok, err, c.effective)
			}
		}
	}
}

func TestDiffSchemaString(t *testing.T) {
	ds := DiffSchema{Type: DiffDelete, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price"}}
	if got := ds.String(); got == "" {
		t.Fatal("empty String()")
	}
	if DiffInsert.String() != "+" || DiffDelete.String() != "-" || DiffUpdate.String() != "u" {
		t.Error("type strings wrong")
	}
}
