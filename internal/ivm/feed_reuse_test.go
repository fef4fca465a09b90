package ivm

import (
	"reflect"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
)

// reuseSystem is a system with one view, a copy of the logged table
// t(k, v, w), over rows keyed 0 … rows-1.
func reuseSystem(t *testing.T, rows int) *System {
	t.Helper()
	d := db.New()
	sch := rel.NewSchema([]string{"k", "v", "w"}, []string{"k"})
	d.MustCreateTable("t", sch)
	for i := 0; i < rows; i++ {
		if err := d.Insert("t", rel.Tuple{rel.Int(int64(i)), rel.Int(0), rel.String("w")}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSystem(d)
	if _, err := s.RegisterView("v", algebra.NewScan("t", "", sch), ModeID); err != nil {
		t.Fatal(err)
	}
	return s
}

// logUpdates logs an update of v on each of the first n rows.
func logUpdates(t *testing.T, s *System, n int, round int64) {
	t.Helper()
	set := []string{"v"}
	for i := 0; i < n; i++ {
		if _, err := s.DB.Update("t", []rel.Value{rel.Int(int64(i))}, set, []rel.Value{rel.Int(round)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmFeedAllocatesPerInstance pins what the reused compactor buys: once
// a few rounds warmed it, building a round's feed from 1 024 logged updates
// allocates as many objects as from 16 — the instances' columns, batches and
// bindings, and the feed's per-table slices, none of them per log entry. A
// clone per surviving image, or a compactor rebuilt per round, shows up as a
// difference that grows with the log.
func TestWarmFeedAllocatesPerInstance(t *testing.T) {
	const rows = 1024
	s := reuseSystem(t, rows)
	feedAllocs := func(n int) uint64 {
		var out uint64
		for round := int64(1); round <= 4; round++ {
			logUpdates(t, s, n, round)
			var err error
			out = mallocs(func() { _, err = s.newFeed() })
			if err != nil {
				t.Fatal(err)
			}
			s.DB.ResetLog()
		}
		return out
	}
	small, large := feedAllocs(16), feedAllocs(rows)
	if small != large {
		t.Fatalf("a warm feed of 16 updates allocated %d objects, of %d updates %d", small, rows, large)
	}
	t.Logf("a warm feed allocates %d objects at 16 and %d updates", small, rows)
}

// TestCompactorAndLogReleaseLargeBuffers bounds what the reused buffers keep:
// after a round of 100 000 logged inserts, rounds of 16 entries leave neither
// the log nor the compactor holding the large round's buffers.
func TestCompactorAndLogReleaseLargeBuffers(t *testing.T) {
	s := reuseSystem(t, 0)
	round := func(lo, n int) {
		t.Helper()
		for i := lo; i < lo+n; i++ {
			if err := s.DB.Insert("t", rel.Tuple{rel.Int(int64(i)), rel.Int(1), rel.String("w")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.MaintainAll(); err != nil {
			t.Fatal(err)
		}
	}
	const large = 100_000
	round(0, large)
	a := s.compactor.tables["t"]
	if cap(a.slots) < large || cap(s.DB.Log()) < large {
		t.Fatalf("the large round kept no buffers: %d slots, a log of %d", cap(a.slots), cap(s.DB.Log()))
	}
	round(large, 16)
	round(large+16, 16)
	// The chains' storage is unexported in package rel: read its size by
	// reflection.
	chains := reflect.ValueOf(&a.chains).Elem()
	held := map[string]int{
		"log":         cap(s.DB.Log()),
		"slots":       cap(a.slots),
		"inserts":     cap(a.nc.Inserts),
		"chain links": chains.FieldByName("next").Cap(),
		"chain cells": chains.FieldByName("tab").FieldByName("cells").Len(),
		"tables":      cap(s.compactor.used),
		"update pre":  cap(s.compactor.pre),
		"update post": cap(s.compactor.post),
		"key scratch": cap(s.compactor.key),
		"deletes":     cap(a.nc.Deletes),
		"updates":     cap(a.nc.Updates),
	}
	for name, n := range held {
		if n > 1<<10 { // rel.Reuse's floor
			t.Errorf("after two 16-entry rounds the %s still hold %d entries", name, n)
		}
	}
}
