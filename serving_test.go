package idivm_test

import (
	"testing"
	"time"

	"idivm"
)

// TestServingFacade exercises the public serving surface end to end:
// WithServing, the Serving() write handle, snapshot reads, stats and
// Close semantics.
func TestServingFacade(t *testing.T) {
	d := idivm.Open(idivm.WithServing(idivm.ServingOptions{MaxBatch: 64, MaxDelay: time.Millisecond}))
	defer d.Close()

	d.MustCreateTable("parts", idivm.Columns("pid", "price"), "pid")
	d.MustCreateTable("devices", idivm.Columns("did", "category"), "did")
	d.MustCreateTable("devices_parts", idivm.Columns("did", "pid"), "did", "pid")
	for i := 0; i < 20; i++ {
		d.MustInsert("parts", i, 10+i)
		cat := "tablet"
		if i%4 == 0 {
			cat = "phone"
		}
		d.MustInsert("devices", i, cat)
		d.MustInsert("devices_parts", i, i)
	}
	d.MustCreateView(`CREATE VIEW v AS
		SELECT devices_parts.did, devices_parts.pid, parts.price
		FROM parts, devices_parts, devices
		WHERE parts.pid = devices_parts.pid
		  AND devices_parts.did = devices.did
		  AND devices.category = 'phone'`)
	if _, err := d.Maintain(); err != nil {
		t.Fatalf("Maintain: %v", err)
	}

	srv := d.Serving()
	if srv == nil {
		t.Fatal("Serving() = nil despite WithServing")
	}

	before, err := d.ViewSnapshot("v")
	if err != nil {
		t.Fatalf("ViewSnapshot: %v", err)
	}
	// A price update on a phone-linked part must reach the view after its
	// batch commits.
	if err := srv.Update("parts", []any{0}, map[string]any{"price": 999}); err != nil {
		t.Fatalf("served Update: %v", err)
	}
	after, err := d.ViewSnapshot("v")
	if err != nil {
		t.Fatalf("ViewSnapshot: %v", err)
	}
	if before.Len() != after.Len() {
		t.Fatalf("update changed view cardinality: %d -> %d", before.Len(), after.Len())
	}
	found := false
	for _, row := range after.Data {
		if row[1] == int64(0) && row[2] == int64(999) {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing committed update: %v", after.Data)
	}

	q, err := d.QuerySnapshot("SELECT pid, price FROM parts WHERE price = 999")
	if err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	if q.Len() != 1 {
		t.Fatalf("QuerySnapshot rows = %d, want 1", q.Len())
	}

	// Async writes resolve once flushed.
	p := srv.EnqueueInsert("parts", 1000, 5)
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	st := srv.Stats()
	if st.SnapshotReads == 0 || st.Ops == 0 || st.Rounds == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}

	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Insert("parts", 1001, 5); err == nil {
		t.Fatal("Insert after Close succeeded")
	}
	if err := d.CheckConsistent("v"); err != nil {
		t.Fatalf("CheckConsistent after serving: %v", err)
	}
}

// TestSnapshotWithoutServing pins the fallback path: snapshot reads work
// (and are uncharged) on a database opened without the serving layer.
func TestSnapshotWithoutServing(t *testing.T) {
	d := idivm.Open()
	if d.Serving() != nil {
		t.Fatal("Serving() non-nil without WithServing")
	}
	d.MustCreateTable("parts", idivm.Columns("pid", "price"), "pid")
	d.MustInsert("parts", 1, 10)
	d.MustCreateView(`CREATE VIEW v AS SELECT pid, price FROM parts`)

	d.ResetAccessCounter()
	v, err := d.ViewSnapshot("v")
	if err != nil {
		t.Fatalf("ViewSnapshot: %v", err)
	}
	if v.Len() != 1 {
		t.Fatalf("snapshot rows = %d, want 1", v.Len())
	}
	q, err := d.QuerySnapshot("SELECT pid, price FROM parts")
	if err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	if q.Len() != 1 {
		t.Fatalf("query snapshot rows = %d, want 1", q.Len())
	}
	if r, l, w := d.AccessCounter(); r+l+w != 0 {
		t.Fatalf("snapshot reads were charged: reads=%d lookups=%d writes=%d", r, l, w)
	}
}

// TestReadsShareOnePlanCache: a served database has one plan cache, the
// server's. Query (live) and QuerySnapshot (pre-state) of the same SQL are two
// entries in it, each compiled once and then reused, and the server's
// counters see both.
func TestReadsShareOnePlanCache(t *testing.T) {
	d := idivm.Open(idivm.WithServing(idivm.ServingOptions{}))
	defer d.Close()
	d.MustCreateTable("parts", idivm.Columns("pid", "price"), "pid")
	d.MustInsert("parts", 1, 10)
	const sql = "SELECT pid, price FROM parts"
	for i := 0; i < 2; i++ {
		if _, err := d.Query(sql); err != nil {
			t.Fatalf("Query: %v", err)
		}
		if _, err := d.QuerySnapshot(sql); err != nil {
			t.Fatalf("QuerySnapshot: %v", err)
		}
	}
	if st := d.Serving().Stats(); st.PlanCacheMisses != 2 || st.PlanCacheHits != 2 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 2/2", st.PlanCacheHits, st.PlanCacheMisses)
	}
}
