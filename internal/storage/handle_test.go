package storage_test

// Handle charging rules, asserted per engine: the decorator derives every
// charge from (call, result), so the same workload must charge the same
// counts on every engine — the invariant the CI bench gate pins globally.

import (
	"testing"

	"idivm/internal/rel"
	"idivm/internal/rel/epochtest"
	"idivm/internal/storage"
)

func countedParts(t *testing.T, e storage.Engine) (*storage.Handle, *rel.CostCounter) {
	t.Helper()
	h := storage.NewHandle(mkParts(t, e))
	c := new(rel.CostCounter)
	h.SetCounter(c)
	return h, c
}

func TestHandleCostAccounting(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)

		h.Scan(rel.StatePost)
		if c.TupleReads != 3 {
			t.Errorf("scan of 3 rows charged %d reads", c.TupleReads)
		}
		c.Reset()
		h.Get(rel.StatePost, []rel.Value{rel.String("P1")})
		if c.IndexLookups != 1 || c.TupleReads != 1 {
			t.Errorf("get charged %v", c)
		}
		c.Reset()
		h.Get(rel.StatePost, []rel.Value{rel.String("P9")})
		if c.IndexLookups != 1 || c.TupleReads != 0 {
			t.Errorf("missing get charged %v", c)
		}
		c.Reset()
		rows, err := h.Lookup(rel.StatePost, []string{"price"}, []rel.Value{rel.Int(20)})
		if err != nil || len(rows) != 2 {
			t.Fatalf("Lookup price=20: %v rows, err %v", len(rows), err)
		}
		if c.IndexLookups != 1 || c.TupleReads != 2 {
			t.Errorf("lookup charged %v", c)
		}
		c.Reset()
		pl := rel.PrepareLookup([]string{"price"})
		out, err := h.LookupInto(rel.StatePost, pl, []rel.Value{rel.Int(20)}, nil)
		if err != nil || len(out) != 2 {
			t.Fatalf("LookupInto: %v rows, err %v", len(out), err)
		}
		if c.IndexLookups != 1 || c.TupleReads != 2 {
			t.Errorf("LookupInto charged %v", c)
		}
		c.Reset()
		n, err := epochtest.UpdateRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(20)}, []string{"price"}, []rel.Value{rel.Int(21)}, nil)
		if err != nil || n != 2 {
			t.Fatalf("UpdateWhere: n=%d err=%v", n, err)
		}
		if c.IndexLookups != 1 || c.TupleWrites != 2 {
			t.Errorf("update charged %v", c)
		}
	})
}

func TestHandleErrorPathsUncharged(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)
		c.Reset()

		if err := h.Insert(rel.Tuple{rel.String("P9")}); err == nil {
			t.Fatal("width error expected")
		}
		if err := h.Insert(rel.Tuple{rel.String("P1"), rel.Int(1)}); err == nil {
			t.Fatal("duplicate error expected")
		}
		if _, err := epochtest.InsertRowIfAbsent(h, rel.Tuple{rel.String("P9")}); err == nil {
			t.Fatal("width error expected")
		}
		if _, err := h.Lookup(rel.StatePost, []string{"nope"}, []rel.Value{rel.Int(1)}); err == nil {
			t.Fatal("index error expected")
		}
		if _, err := epochtest.DeleteRowsWhere(h, []string{"nope"}, []rel.Value{rel.Int(1)}, nil); err == nil {
			t.Fatal("index error expected")
		}
		if _, err := epochtest.UpdateRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(20)}, []string{"pid"}, []rel.Value{rel.Int(1)}, nil); err == nil {
			t.Fatal("key-update error expected")
		}
		if c.Total() != 0 {
			t.Fatalf("error paths must charge nothing, got %v", c)
		}

		// Conflicting InsertIfAbsent passes the width check, so it still
		// charges its probe lookup — and nothing else.
		if _, err := epochtest.InsertRowIfAbsent(h, rel.Tuple{rel.String("P1"), rel.Int(99)}); err == nil {
			t.Fatal("conflict expected")
		}
		if c.IndexLookups != 1 || c.TupleReads != 0 || c.TupleWrites != 0 {
			t.Fatalf("conflicting InsertIfAbsent charged %v", c)
		}
	})
}

func TestHandleInsertIfAbsentCharges(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)
		c.Reset()
		if ins, err := epochtest.InsertRowIfAbsent(h, rel.Tuple{rel.String("P4"), rel.Int(40)}); err != nil || !ins {
			t.Fatalf("fresh insert: %v %v", ins, err)
		}
		if c.IndexLookups != 1 || c.TupleWrites != 1 {
			t.Fatalf("fresh InsertIfAbsent charged %v", c)
		}
		c.Reset()
		if ins, err := epochtest.InsertRowIfAbsent(h, rel.Tuple{rel.String("P4"), rel.Int(40)}); err != nil || ins {
			t.Fatalf("identical insert: %v %v", ins, err)
		}
		if c.IndexLookups != 1 || c.TupleWrites != 0 {
			t.Fatalf("identical InsertIfAbsent charged %v", c)
		}
	})
}

func TestHandleDeleteKeyCharges(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)
		c.Reset()
		if !h.DeleteKey([]rel.Value{rel.String("P1")}) {
			t.Fatal("delete P1")
		}
		if c.IndexLookups != 1 || c.TupleWrites != 1 {
			t.Fatalf("delete charged %v", c)
		}
		c.Reset()
		if h.DeleteKey([]rel.Value{rel.String("P1")}) {
			t.Fatal("double delete")
		}
		if c.IndexLookups != 1 || c.TupleWrites != 0 {
			t.Fatalf("missing delete charged %v", c)
		}
	})
}

// InsertLogged and DeleteKeyLogged hand back the image a logging caller keeps
// from the one storage call, and charge what the calls they replace do:
// InsertLogged an Insert, DeleteKeyLogged a Get and a DeleteKey — two lookups,
// a read and a write, or the one lookup of the Get when the key is absent.
func TestHandleLoggedInsertAndDeleteCharges(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)
		p4 := rel.Tuple{rel.String("P4"), rel.Int(40)}
		c.Reset()
		stored, err := h.InsertLogged(p4)
		if err != nil || !stored.Equal(p4) {
			t.Fatalf("InsertLogged = %v, %v", stored, err)
		}
		if got, _ := h.WithCounter(nil).Get(rel.StatePost, p4[:1]); &got[0] != &stored[0] {
			t.Fatal("InsertLogged returned a copy, not the stored row")
		}
		if &stored[0] == &p4[0] {
			t.Fatal("InsertLogged stored the caller's row, not a copy")
		}
		if c.IndexLookups != 0 || c.TupleReads != 0 || c.TupleWrites != 1 {
			t.Fatalf("InsertLogged charged %v", c)
		}
		c.Reset()
		if stored, err := h.InsertLogged(p4); err == nil || stored != nil || c.Total() != 0 {
			t.Fatalf("duplicate InsertLogged = %v, %v, charged %v", stored, err, c)
		}

		c.Reset()
		pre := h.DeleteKeyLogged(p4[:1])
		if !pre.Equal(p4) || &pre[0] != &stored[0] {
			t.Fatalf("DeleteKeyLogged = %v, want the stored row %v", pre, stored)
		}
		if c.IndexLookups != 2 || c.TupleReads != 1 || c.TupleWrites != 1 {
			t.Fatalf("DeleteKeyLogged charged %v", c)
		}
		c.Reset()
		if pre := h.DeleteKeyLogged(p4[:1]); pre != nil {
			t.Fatalf("DeleteKeyLogged of an absent key = %v", pre)
		}
		if c.IndexLookups != 1 || c.TupleReads != 0 || c.TupleWrites != 0 {
			t.Fatalf("absent DeleteKeyLogged charged %v", c)
		}

		// The calls they replace charge the same on a twin table.
		h2, c2 := countedParts(t, e)
		c2.Reset()
		if err := h2.Insert(p4); err != nil {
			t.Fatal(err)
		}
		insert := *c2
		c2.Reset()
		if _, ok := h2.Get(rel.StatePost, p4[:1]); !ok || !h2.DeleteKey(p4[:1]) {
			t.Fatal("Get–DeleteKey of P4 failed")
		}
		del := *c2
		c2.Reset()
		h2.Get(rel.StatePost, p4[:1])
		if insert != (rel.CostCounter{TupleWrites: 1}) || del != (rel.CostCounter{IndexLookups: 2, TupleReads: 1, TupleWrites: 1}) ||
			*c2 != (rel.CostCounter{IndexLookups: 1}) {
			t.Fatalf("Insert charged %v, Get–DeleteKey %v, a missing Get %v", insert, del, *c2)
		}
	})
}

// UpdateKeyLogged returns both images from one key resolution and charges the
// Get, UpdateKey, Get it stands for; UpdateKey charges its own lookup and write.
func TestHandleUpdateKeyLoggedCharges(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)
		p1, price := []rel.Value{rel.String("P1")}, []string{"price"}
		c.Reset()
		pre, post, err := h.UpdateKeyLogged(p1, price, []rel.Value{rel.Int(11)})
		if err != nil || !pre.Equal(rel.Tuple{p1[0], rel.Int(10)}) || !post.Equal(rel.Tuple{p1[0], rel.Int(11)}) {
			t.Fatalf("UpdateKeyLogged = %v, %v, %v", pre, post, err)
		}
		if c.IndexLookups != 3 || c.TupleReads != 2 || c.TupleWrites != 1 {
			t.Fatalf("UpdateKeyLogged charged %v", c)
		}
		c.Reset()
		if pre, post, err := h.UpdateKeyLogged([]rel.Value{rel.String("P9")}, price, []rel.Value{rel.Int(1)}); pre != nil || post != nil || err != nil {
			t.Fatalf("UpdateKeyLogged of an absent key = %v, %v, %v", pre, post, err)
		}
		if c.IndexLookups != 1 || c.TupleReads != 0 || c.TupleWrites != 0 {
			t.Fatalf("absent UpdateKeyLogged charged %v", c)
		}
		c.Reset()
		if ok, err := h.UpdateKey(p1, price, []rel.Value{rel.Int(12)}); !ok || err != nil {
			t.Fatalf("UpdateKey = %v, %v", ok, err)
		}
		if c.IndexLookups != 1 || c.TupleReads != 0 || c.TupleWrites != 1 {
			t.Fatalf("UpdateKey charged %v", c)
		}
		c.Reset()
		if _, _, err := h.UpdateKeyLogged(p1, []string{"pid"}, p1); err == nil || c.Total() != 0 {
			t.Fatalf("UpdateKeyLogged of the key attribute: err=%v, charged %v", err, c)
		}
	})
}

func TestHandleWithCounter(t *testing.T) {
	h, c := countedParts(t, storage.NewMem())
	if h.WithCounter(c) != h {
		t.Fatal("same-counter WithCounter must return the receiver")
	}
	shard := new(rel.CostCounter)
	h2 := h.WithCounter(shard)
	h2.Scan(rel.StatePost)
	if shard.TupleReads != 3 || c.TupleReads != 0 {
		t.Fatalf("shard=%v root=%v", shard, c)
	}
	if h.Backend() != h2.Backend() {
		t.Fatal("WithCounter must share the backend")
	}
	// A nil counter discards charges without crashing.
	storage.NewHandle(h.Backend()).Scan(rel.StatePost)
}

// TestFromEnv: the variable that once selected a backend accepts only the
// one there is, and panics on anything else.
func TestFromEnv(t *testing.T) {
	for _, v := range []string{"", "mem", " mem "} {
		t.Setenv("IDIVM_ENGINE", v)
		if storage.FromEnv() != storage.NewMem() {
			t.Errorf("FromEnv(%q) is not the mem engine", v)
		}
	}
	for _, bad := range []string{"sharded", "sharded:2", "disk"} {
		t.Setenv("IDIVM_ENGINE", bad)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEnv(%q) must panic", bad)
				}
			}()
			storage.FromEnv()
		}()
	}
}

// TestHandleCaptureOpCharges pins the no-extra-probe contract: the Func
// variants charge exactly what the plain variants do — image capture rides
// inside the mutation, never through charged reads — so enabling derived
// logging for a cascade cannot perturb the gated access counts.
func TestHandleCaptureOpCharges(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e storage.Engine) {
		h, c := countedParts(t, e)

		n, err := epochtest.UpdateRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(20)},
			[]string{"price"}, []rel.Value{rel.Int(21)}, nil)
		if err != nil || n != 2 {
			t.Fatalf("UpdateWhere: n=%d err=%v", n, err)
		}
		plain := *c
		c.Reset()
		fired := 0
		n, err = epochtest.UpdateRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(21)},
			[]string{"price"}, []rel.Value{rel.Int(22)},
			func(pre, post rel.Tuple) { fired++ })
		if err != nil || n != 2 || fired != 2 {
			t.Fatalf("UpdateWhereFunc: n=%d fired=%d err=%v", n, fired, err)
		}
		if *c != plain {
			t.Errorf("UpdateWhereFunc charged %+v, plain variant %+v", *c, plain)
		}

		c.Reset()
		n, err = epochtest.DeleteRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(10)}, nil)
		if err != nil || n != 1 {
			t.Fatalf("DeleteWhere: n=%d err=%v", n, err)
		}
		plain = *c
		c.Reset()
		fired = 0
		n, err = epochtest.DeleteRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(22)},
			func(pre rel.Tuple) { fired++ })
		if err != nil || n != 2 || fired != 2 {
			t.Fatalf("DeleteWhereFunc: n=%d fired=%d err=%v", n, fired, err)
		}
		// One lookup + a write per row, independent of the row count delta:
		// scale the plain charge to 2 rows for the comparison.
		want := rel.CostCounter{IndexLookups: plain.IndexLookups, TupleWrites: plain.TupleWrites * 2, TupleReads: plain.TupleReads * 2}
		if *c != want {
			t.Errorf("DeleteWhereFunc charged %+v, want %+v", *c, want)
		}
	})
}
