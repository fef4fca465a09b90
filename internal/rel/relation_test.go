package rel

import (
	"strings"
	"testing"
)

func TestRelationCloneIndependence(t *testing.T) {
	r := NewRelation(NewSchema([]string{"a", "b"}, []string{"a"}))
	r.Add(Tuple{Int(1), Int(10)})
	c := r.Clone()
	c.Tuples[0][1] = Int(99)
	if !r.Tuples[0][1].Equal(Int(10)) {
		t.Fatal("Clone must deep-copy tuples")
	}
	c.Add(Tuple{Int(2), Int(20)})
	if r.Len() != 1 {
		t.Fatal("Clone must not share backing storage")
	}
}

func TestSortedDeterminism(t *testing.T) {
	r := NewRelation(NewSchema([]string{"a"}, nil))
	r.Add(Tuple{Int(3)})
	r.Add(Tuple{Int(1)})
	r.Add(Tuple{Null()})
	r.Add(Tuple{String("z")})
	s := r.Sorted()
	if !s.Tuples[0][0].IsNull() || !s.Tuples[1][0].Equal(Int(1)) ||
		!s.Tuples[2][0].Equal(Int(3)) || s.Tuples[3][0].Text() != "z" {
		t.Fatalf("sorted order = %v", s.Tuples)
	}
	// Original untouched.
	if !r.Tuples[0][0].Equal(Int(3)) {
		t.Fatal("Sorted must not mutate its receiver")
	}
}

func TestRelationAndTupleStrings(t *testing.T) {
	r := NewRelation(NewSchema([]string{"a", "b"}, []string{"a"}))
	r.Add(Tuple{Int(1), String("x")})
	out := r.String()
	if !strings.Contains(out, "a*") || !strings.Contains(out, `<1, "x">`) {
		t.Fatalf("relation string = %q", out)
	}
}

func TestEqualSetSchemaMismatch(t *testing.T) {
	a := NewRelation(NewSchema([]string{"a"}, nil))
	b := NewRelation(NewSchema([]string{"b"}, nil))
	if a.EqualSet(b) {
		t.Fatal("different schemas must not be equal")
	}
}

func TestEqualSetBagSemantics(t *testing.T) {
	a := NewRelation(NewSchema([]string{"x"}, nil))
	b := NewRelation(NewSchema([]string{"x"}, nil))
	a.Add(Tuple{Int(1)})
	a.Add(Tuple{Int(1)})
	b.Add(Tuple{Int(1)})
	b.Add(Tuple{Int(2)})
	if a.EqualSet(b) {
		t.Fatal("bags with different multiplicities must differ")
	}
	b2 := NewRelation(NewSchema([]string{"x"}, nil))
	b2.Add(Tuple{Int(1)})
	b2.Add(Tuple{Int(1)})
	if !a.EqualSet(b2) {
		t.Fatal("equal bags must match")
	}
}

func TestTableCloneIsIndependent(t *testing.T) {
	a := MustNewTable("t", NewSchema([]string{"k", "v"}, []string{"k"}))
	a.MustInsert(Int(1), Int(10))
	b := a.Clone()
	b.MustInsert(Int(2), Int(20))
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("clone sharing: a=%d b=%d", a.Len(), b.Len())
	}
	if _, _, err := b.UpdateKey([]Value{Int(1)}, []string{"v"}, []Value{Int(99)}); err != nil {
		t.Fatal(err)
	}
	row, _ := a.Get(StatePost, []Value{Int(1)})
	if !row[1].Equal(Int(10)) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestMustInsertPanics(t *testing.T) {
	a := MustNewTable("t", NewSchema([]string{"k"}, []string{"k"}))
	a.MustInsert(Int(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate MustInsert")
		}
	}()
	a.MustInsert(Int(1))
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema([]string{"a", "b", "c"}, []string{"a", "b"})
	if got := s.NonKey(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("NonKey = %v", got)
	}
	w := s.WithKey([]string{"c"})
	if len(w.Key) != 1 || w.Key[0] != "c" {
		t.Fatalf("WithKey = %v", w.Key)
	}
	if len(s.Key) != 2 {
		t.Fatal("WithKey must not mutate the receiver")
	}
	if s.String() != "(a*, b*, c)" {
		t.Fatalf("schema string = %q", s.String())
	}
	if _, err := s.Indices([]string{"a", "zz"}); err == nil {
		t.Fatal("Indices with unknown attr must error")
	}
	if !s.HasAll([]string{"a", "c"}) || s.HasAll([]string{"a", "zz"}) {
		t.Fatal("HasAll misbehaves")
	}
}

func TestCostCounterArithmetic(t *testing.T) {
	a := CostCounter{TupleReads: 5, IndexLookups: 3, TupleWrites: 2}
	b := CostCounter{TupleReads: 1, IndexLookups: 1, TupleWrites: 1}
	d := a.Sub(b)
	if d.TupleReads != 4 || d.IndexLookups != 2 || d.TupleWrites != 1 {
		t.Fatalf("Sub = %+v", d)
	}
	var acc CostCounter
	acc.Add(a)
	acc.Add(b)
	if acc.Total() != a.Total()+b.Total() {
		t.Fatal("Add/Total mismatch")
	}
	if !strings.Contains(acc.String(), "total=") {
		t.Fatal("counter string")
	}
	acc.Reset()
	if acc.Total() != 0 {
		t.Fatal("Reset")
	}
}
