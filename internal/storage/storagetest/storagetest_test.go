package storagetest_test

import (
	"errors"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/rel/epochtest"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

func rows(keys ...int64) []rel.Tuple {
	out := make([]rel.Tuple, len(keys))
	for i, k := range keys {
		out[i] = rel.Tuple{rel.Int(k), rel.Int(k % 2)}
	}
	return out
}

// TestArmFailsTheNthRow: the budget is shared by the engine's tables and
// counts instance rows and single-row calls; the armed row fails once, a
// partial instance applies the rows before it and reports that row probed,
// and Arm(0) disarms.
func TestArmFailsTheNthRow(t *testing.T) {
	e := storagetest.New()
	var tabs [2]storage.Table
	for i := range tabs {
		var err error
		if tabs[i], err = e.Create("t", rel.NewSchema([]string{"k", "v"}, []string{"k"})); err != nil {
			t.Fatal(err)
		}
	}
	a, b := tabs[0], tabs[1]
	if err := a.Insert(rows(1)[0]); err != nil {
		t.Fatal(err)
	}
	e.Arm(4)
	if _, _, err := a.UpdateKey([]rel.Value{rel.Int(1)}, []string{"v"}, []rel.Value{rel.Int(7)}); err != nil {
		t.Fatal(err)
	}
	probed, inserted, err := b.InsertIfAbsent(rows(1, 2, 3, 4, 5), epochtest.Cols(0, 2), nil)
	if !errors.Is(err, storagetest.ErrInjected) || probed != 3 || inserted != 2 || b.Len() != 2 {
		t.Fatalf("InsertIfAbsent with the 3rd row armed = (%d, %d, %v), %d rows stored; want (3, 2, ErrInjected), 2", probed, inserted, err, b.Len())
	}
	if probed, deleted, err := b.DeleteWhere([]string{"v"}, rows(1, 2), epochtest.Cols(1, 2), nil); err != nil || probed != 2 || deleted != 2 {
		t.Fatalf("DeleteWhere after the fault fired = (%d, %d, %v); the fault must fire once", probed, deleted, err)
	}
	if got := e.Written(); got != 1+1+3+2 {
		t.Fatalf("Written = %d, want 7: rows after the failing one are not counted", got)
	}
	e.Arm(1)
	if err := a.Insert(rows(9)[0]); !errors.Is(err, storagetest.ErrInjected) || a.Len() != 1 {
		t.Fatalf("Insert with its row armed = %v, %d rows", err, a.Len())
	}
	e.Arm(1)
	e.Arm(0)
	if _, _, err := a.UpdateKey([]rel.Value{rel.Int(1)}, []string{"v"}, []rel.Value{rel.Int(8)}); err != nil {
		t.Fatalf("UpdateKey after Arm(0): %v", err)
	}
}
