package rel

import (
	"math/rand"
	"testing"
)

func mkParts(t *testing.T) *Table {
	t.Helper()
	tab := MustNewTable("parts", NewSchema([]string{"pid", "price"}, []string{"pid"}))
	tab.MustInsert(String("P1"), Int(10))
	tab.MustInsert(String("P2"), Int(20))
	tab.MustInsert(String("P3"), Int(20))
	return tab
}

func TestTableRequiresKey(t *testing.T) {
	if _, err := NewTable("x", Schema{Attrs: []string{"a"}}); err == nil {
		t.Fatal("expected error for keyless table")
	}
}

func TestTableInsertGet(t *testing.T) {
	tab := mkParts(t)
	row, ok := tab.Get(StatePost, []Value{String("P2")})
	if !ok || !row[1].Equal(Int(20)) {
		t.Fatalf("Get(P2) = %v, %v", row, ok)
	}
	if _, ok := tab.Get(StatePost, []Value{String("P9")}); ok {
		t.Fatal("Get(P9) should miss")
	}
	if err := tab.Insert(Tuple{String("P1"), Int(99)}); err == nil {
		t.Fatal("duplicate key insert must fail")
	}
	if err := tab.Insert(Tuple{String("P4")}); err == nil {
		t.Fatal("wrong-width insert must fail")
	}
}

// Cost accounting moved out of Table with the storage-engine split; the
// charging rules are covered by internal/storage's handle tests.

func TestTableUpdateKeyImmutable(t *testing.T) {
	tab := mkParts(t)
	if _, _, err := tab.UpdateKey([]Value{String("P1")}, []string{"pid"}, []Value{String("PX")}); err == nil {
		t.Fatal("updating a key attribute must fail")
	}
}

func TestTableDelete(t *testing.T) {
	tab := mkParts(t)
	if !tab.DeleteKey([]Value{String("P2")}) {
		t.Fatal("delete P2 failed")
	}
	if tab.DeleteKey([]Value{String("P2")}) {
		t.Fatal("double delete should report false")
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d, want 2", tab.Len())
	}
	n, err := DeleteRowsWhere(tab, []string{"price"}, []Value{Int(20)}, nil)
	if err != nil || n != 1 {
		t.Fatalf("DeleteWhere: n=%d err=%v", n, err)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d, want 1", tab.Len())
	}
}

func TestTableEpochPrePostIsolation(t *testing.T) {
	tab := mkParts(t)
	tab.BeginEpoch()
	defer tab.EndEpoch()

	if _, _, err := tab.UpdateKey([]Value{String("P1")}, []string{"price"}, []Value{Int(11)}); err != nil {
		t.Fatal(err)
	}
	tab.DeleteKey([]Value{String("P2")})
	if err := tab.Insert(Tuple{String("P4"), Int(40)}); err != nil {
		t.Fatal(err)
	}

	// Pre-state is the original.
	pre, ok := tab.Get(StatePre, []Value{String("P1")})
	if !ok || !pre[1].Equal(Int(10)) {
		t.Errorf("pre P1 = %v", pre)
	}
	if _, ok := tab.Get(StatePre, []Value{String("P2")}); !ok {
		t.Error("pre state must still contain P2")
	}
	if _, ok := tab.Get(StatePre, []Value{String("P4")}); ok {
		t.Error("pre state must not contain P4")
	}
	// Post-state reflects changes.
	post, ok := tab.Get(StatePost, []Value{String("P1")})
	if !ok || !post[1].Equal(Int(11)) {
		t.Errorf("post P1 = %v", post)
	}
	if _, ok := tab.Get(StatePost, []Value{String("P2")}); ok {
		t.Error("post state must not contain P2")
	}
	if pre := len(tab.Rows(StatePre)); pre != 3 || tab.Len() != 3 {
		t.Errorf("pre rows=%d Len=%d", pre, tab.Len())
	}
}

func TestTableEpochSecondaryIndexes(t *testing.T) {
	tab := mkParts(t)
	tab.BeginEpoch()
	defer tab.EndEpoch()
	if _, _, err := tab.UpdateKey([]Value{String("P3")}, []string{"price"}, []Value{Int(99)}); err != nil {
		t.Fatal(err)
	}
	pre, err := tab.Lookup(StatePre, []string{"price"}, []Value{Int(20)})
	if err != nil || len(pre) != 2 {
		t.Fatalf("pre lookup price=20: %d rows err=%v", len(pre), err)
	}
	post, err := tab.Lookup(StatePost, []string{"price"}, []Value{Int(20)})
	if err != nil || len(post) != 1 {
		t.Fatalf("post lookup price=20: %d rows err=%v", len(post), err)
	}
}

func TestInsertIfAbsent(t *testing.T) {
	tab := mkParts(t)
	ins, err := InsertRowIfAbsent(tab, Tuple{String("P1"), Int(10)})
	if err != nil || ins {
		t.Fatalf("identical insert: ins=%v err=%v", ins, err)
	}
	ins, err = InsertRowIfAbsent(tab, Tuple{String("P9"), Int(90)})
	if err != nil || !ins {
		t.Fatalf("fresh insert: ins=%v err=%v", ins, err)
	}
	if _, err = InsertRowIfAbsent(tab, Tuple{String("P1"), Int(11)}); err == nil {
		t.Fatal("conflicting insert must error")
	}
}

// Randomized consistency: a table subjected to random inserts, deletes and
// updates must agree with a naive map-based model, and pre-state must stay
// frozen during an epoch.
func TestTableRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := MustNewTable("t", NewSchema([]string{"k", "v"}, []string{"k"}))
	model := map[int64]int64{}

	for i := 0; i < 500; i++ {
		k := int64(rng.Intn(50))
		switch rng.Intn(3) {
		case 0:
			v := int64(rng.Intn(1000))
			if _, exists := model[k]; !exists {
				if err := tab.Insert(Tuple{Int(k), Int(v)}); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		case 1:
			deleted := tab.DeleteKey([]Value{Int(k)})
			if _, exists := model[k]; exists != deleted {
				t.Fatalf("delete(%d): table=%v model=%v", k, deleted, exists)
			}
			delete(model, k)
		case 2:
			v := int64(rng.Intn(1000))
			_, post, err := tab.UpdateKey([]Value{Int(k)}, []string{"v"}, []Value{Int(v)})
			ok := post != nil
			if err != nil {
				t.Fatal(err)
			}
			if _, exists := model[k]; exists != ok {
				t.Fatalf("update(%d): table=%v model=%v", k, ok, exists)
			}
			if ok {
				model[k] = v
			}
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("len mismatch: table=%d model=%d", tab.Len(), len(model))
	}
	for k, v := range model {
		row, ok := tab.Get(StatePost, []Value{Int(k)})
		if !ok || !row[1].Equal(Int(v)) {
			t.Fatalf("key %d: row=%v ok=%v want v=%d", k, row, ok, v)
		}
	}
}

func TestRelationProjectAndEqualSet(t *testing.T) {
	r := NewRelation(NewSchema([]string{"a", "b", "c"}, []string{"a"}))
	r.Add(Tuple{Int(1), Int(10), String("x")})
	r.Add(Tuple{Int(2), Int(20), String("y")})

	p, err := r.Project([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schema.Key) != 1 || p.Schema.Key[0] != "a" {
		t.Errorf("projection keeping key attrs should keep key, got %v", p.Schema.Key)
	}
	q, err := r.Project([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Schema.Key) != 0 {
		t.Errorf("projection dropping key attrs must clear key, got %v", q.Schema.Key)
	}

	r2 := NewRelation(p.Schema)
	r2.Add(Tuple{String("y"), Int(2)})
	r2.Add(Tuple{String("x"), Int(1)})
	if !p.EqualSet(r2) {
		t.Error("EqualSet must ignore order")
	}
	r2.Tuples[0][1] = Int(3)
	if p.EqualSet(r2) {
		t.Error("EqualSet must detect differing tuples")
	}
}

func TestSchemaSetHelpers(t *testing.T) {
	a := []string{"x", "y", "z"}
	b := []string{"y", "w"}
	if got := Intersect(a, b); len(got) != 1 || got[0] != "y" {
		t.Errorf("Intersect = %v", got)
	}
	if got := Minus(a, b); len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Errorf("Minus = %v", got)
	}
	if got := Union(a, b); len(got) != 4 || got[3] != "w" {
		t.Errorf("Union = %v", got)
	}
	if !Subset([]string{"x", "z"}, a) || Subset([]string{"q"}, a) {
		t.Error("Subset misbehaves")
	}
}

func TestQualify(t *testing.T) {
	q := Qualify("parts", []string{"pid", "price"})
	if q[0] != "parts.pid" || q[1] != "parts.price" {
		t.Errorf("Qualify = %v", q)
	}
	tb, at := BaseAttr("parts.pid")
	if tb != "parts" || at != "pid" {
		t.Errorf("BaseAttr = %q, %q", tb, at)
	}
	tb, at = BaseAttr("plain")
	if tb != "" || at != "plain" {
		t.Errorf("BaseAttr(plain) = %q, %q", tb, at)
	}
}
