package db

import (
	"testing"

	"idivm/internal/rel"
)

func TestAddTableAndCounterSharing(t *testing.T) {
	d := New()
	ext := rel.MustNewTable("ext", rel.NewSchema([]string{"k"}, []string{"k"}))
	if err := d.AddTable(ext); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTable(ext); err == nil {
		t.Fatal("duplicate AddTable must fail")
	}
	ext.MustInsert(rel.Int(1))
	d.Counter().Reset()
	// The backend table itself charges nothing; accesses through the
	// catalog's handle charge the database counter.
	h, err := d.Table("ext")
	if err != nil {
		t.Fatal(err)
	}
	h.Scan(rel.StatePost)
	if d.Counter().TupleReads != 1 {
		t.Fatal("added table must charge the database counter")
	}
}

func TestUpdateMissingRow(t *testing.T) {
	d := New()
	d.MustCreateTable("t", rel.NewSchema([]string{"k", "v"}, []string{"k"}))
	d.EnableLogging("t")
	ok, err := d.Update("t", []rel.Value{rel.Int(1)}, []string{"v"}, []rel.Value{rel.Int(2)})
	if err != nil || ok {
		t.Fatalf("update missing: ok=%v err=%v", ok, err)
	}
	if len(d.Log()) != 0 {
		t.Fatal("missing update must not log")
	}
}

func TestModKindStrings(t *testing.T) {
	if ModInsert.String() != "+" || ModDelete.String() != "-" || ModUpdate.String() != "u" {
		t.Fatal("mod kind strings")
	}
}

func TestRelBindingRefused(t *testing.T) {
	d := New()
	if _, err := d.Bound("anything"); err == nil {
		t.Fatal("bare database must refuse relation bindings")
	}
}

func TestMustCreateTablePanics(t *testing.T) {
	d := New()
	d.MustCreateTable("t", rel.NewSchema([]string{"k"}, []string{"k"}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate MustCreateTable")
		}
	}()
	d.MustCreateTable("t", rel.NewSchema([]string{"k"}, []string{"k"}))
}

func TestLoggingOnlyAppliesToEnabledTables(t *testing.T) {
	d := New()
	d.MustCreateTable("a", rel.NewSchema([]string{"k"}, []string{"k"}))
	d.MustCreateTable("b", rel.NewSchema([]string{"k"}, []string{"k"}))
	d.EnableLogging("a")
	if !d.LoggingEnabled("a") || d.LoggingEnabled("b") {
		t.Fatal("LoggingEnabled misreports")
	}
	if err := d.Insert("a", rel.Tuple{rel.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("b", rel.Tuple{rel.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(d.Log()) != 1 {
		t.Fatalf("log = %d entries, want 1", len(d.Log()))
	}
	ta, _ := d.Table("a")
	tb, _ := d.Table("b")
	for _, when := range []string{"before", "after"} {
		if !ta.InEpoch() || tb.InEpoch() {
			t.Fatalf("%s ResetLog: the logged table must be in its epoch, the unlogged one not", when)
		}
		d.ResetLog()
	}
	if ta.Len() != 1 || len(ta.Scan(rel.StatePre)) != 1 {
		t.Fatal("ResetLog must advance the logged table's pre-state to its post-state")
	}
}

func TestInsertUnknownTable(t *testing.T) {
	d := New()
	if err := d.Insert("ghost", rel.Tuple{rel.Int(1)}); err == nil {
		t.Fatal("insert into unknown table must fail")
	}
	if _, err := d.Delete("ghost", []rel.Value{rel.Int(1)}); err == nil {
		t.Fatal("delete from unknown table must fail")
	}
	if _, err := d.Update("ghost", []rel.Value{rel.Int(1)}, nil, nil); err == nil {
		t.Fatal("update of unknown table must fail")
	}
}

// Update resolves its key once and takes both logged images from the update's
// critical section (Handle.UpdateKeyLogged), yet is charged as the Get,
// UpdateKey, Get it used to be — three lookups, two reads, a write — or the
// one lookup of the first Get when the key is absent: accesses/op of every
// update workload stay what they were.
func TestUpdateIsChargedAsGetUpdateGet(t *testing.T) {
	d := New()
	d.MustCreateTable("t", rel.NewSchema([]string{"k", "v", "w"}, []string{"k"}))
	d.EnableLogging("t")
	if err := d.Insert("t", rel.Tuple{rel.Int(1), rel.Int(10), rel.Int(7)}); err != nil {
		t.Fatal(err)
	}
	d.Counter().Reset()
	ok, err := d.Update("t", []rel.Value{rel.Int(1)}, []string{"v"}, []rel.Value{rel.Int(11)})
	if !ok || err != nil {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	if c := *d.Counter(); c.IndexLookups != 3 || c.TupleReads != 2 || c.TupleWrites != 1 {
		t.Errorf("found: charged %+v, want 3 lookups, 2 reads, 1 write", c)
	}
	m := d.Log()[len(d.Log())-1]
	if m.Kind != ModUpdate || !m.Pre.Equal(rel.Tuple{rel.Int(1), rel.Int(10), rel.Int(7)}) || !m.Post.Equal(rel.Tuple{rel.Int(1), rel.Int(11), rel.Int(7)}) {
		t.Errorf("logged %+v", m)
	}
	tab, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if row, _ := tab.Get(rel.StatePost, []rel.Value{rel.Int(1)}); !row.Equal(m.Post) {
		t.Errorf("stored %v, logged post-image %v", row, m.Post)
	}
	d.Counter().Reset()
	if ok, err := d.Update("t", []rel.Value{rel.Int(2)}, []string{"v"}, []rel.Value{rel.Int(0)}); ok || err != nil {
		t.Fatalf("Update of an absent key = %v, %v", ok, err)
	}
	if c := *d.Counter(); c.IndexLookups != 1 || c.TupleReads != 0 || c.TupleWrites != 0 {
		t.Errorf("absent: charged %+v, want 1 lookup", c)
	}
	d.Counter().Reset()
	if ok, err := d.Update("t", []rel.Value{rel.Int(1)}, []string{"k"}, []rel.Value{rel.Int(5)}); ok || err == nil {
		t.Fatalf("Update of the key attribute = %v, %v", ok, err)
	}
	if c := *d.Counter(); c.Total() != 0 {
		t.Errorf("refused: charged %+v", c)
	}
}
