package db

import (
	"testing"

	"idivm/internal/rel"
)

func newDB(t *testing.T) *Database {
	t.Helper()
	d := New()
	d.MustCreateTable("parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
	d.EnableLogging("parts")
	if err := d.Insert("parts", rel.Tuple{rel.String("P1"), rel.Int(10)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("parts", rel.Tuple{rel.String("P2"), rel.Int(20)}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateTableDuplicate(t *testing.T) {
	d := newDB(t)
	if _, err := d.CreateTable("parts", rel.NewSchema([]string{"x"}, []string{"x"})); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, err := d.Table("nope"); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestLoggingCapturesImages(t *testing.T) {
	d := newDB(t)
	d.ResetLog() // start a fresh maintenance window after the loads

	if _, err := d.Update("parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete("parts", []rel.Value{rel.String("P2")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("parts", rel.Tuple{rel.String("P3"), rel.Int(30)}); err != nil {
		t.Fatal(err)
	}

	log := d.Log()
	if len(log) != 3 {
		t.Fatalf("log length = %d", len(log))
	}
	if log[0].Kind != ModUpdate || !log[0].Pre[1].Equal(rel.Int(10)) || !log[0].Post[1].Equal(rel.Int(11)) {
		t.Errorf("update log entry = %+v", log[0])
	}
	if log[1].Kind != ModDelete || !log[1].Pre[0].Equal(rel.String("P2")) {
		t.Errorf("delete log entry = %+v", log[1])
	}
	if log[2].Kind != ModInsert || !log[2].Post[0].Equal(rel.String("P3")) {
		t.Errorf("insert log entry = %+v", log[2])
	}
}

// TestEpochLivesFromEnableLogging pins the catalog's half of the one epoch
// protocol: a table enters its epoch when logging is enabled on it, and
// ResetLog never closes it — it advances the pre-state to the post-state.
func TestEpochLivesFromEnableLogging(t *testing.T) {
	d := newDB(t)
	parts, _ := d.Table("parts")
	if !parts.InEpoch() {
		t.Fatal("EnableLogging must open the epoch")
	}
	if _, ok := parts.Get(rel.StatePre, []rel.Value{rel.String("P1")}); ok {
		t.Fatal("the pre-state must be the table as logging was enabled: empty")
	}
	d.ResetLog()
	if !parts.InEpoch() {
		t.Fatal("ResetLog must not close the epoch")
	}
	if _, err := d.Update("parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(99)}); err != nil {
		t.Fatal(err)
	}
	pre, ok := parts.Get(rel.StatePre, []rel.Value{rel.String("P1")})
	if !ok || !pre[1].Equal(rel.Int(10)) {
		t.Fatalf("pre state = %v, want the state at the last ResetLog", pre)
	}
	d.ResetLog()
	if !parts.InEpoch() {
		t.Fatal("ResetLog must not close the epoch")
	}
	if pre, _ := parts.Get(rel.StatePre, []rel.Value{rel.String("P1")}); !pre[1].Equal(rel.Int(99)) {
		t.Fatalf("pre state = %v, want it advanced to the post-state", pre)
	}
	if len(d.Log()) != 0 {
		t.Fatal("ResetLog must clear the log")
	}
}

func TestUnloggedTableBypassesLog(t *testing.T) {
	d := New()
	d.MustCreateTable("scratch", rel.NewSchema([]string{"k"}, []string{"k"}))
	if err := d.Insert("scratch", rel.Tuple{rel.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(d.Log()) != 0 {
		t.Fatal("unlogged table must not log")
	}
	s, _ := d.Table("scratch")
	if s.InEpoch() {
		t.Fatal("unlogged table must not open an epoch")
	}
}

func TestDeleteMissingRow(t *testing.T) {
	d := newDB(t)
	d.ResetLog()
	ok, err := d.Delete("parts", []rel.Value{rel.String("P9")})
	if err != nil || ok {
		t.Fatalf("delete missing: ok=%v err=%v", ok, err)
	}
	if len(d.Log()) != 0 {
		t.Fatal("missing delete must not log")
	}
}

func TestDropTable(t *testing.T) {
	d := newDB(t)
	d.DropTable("parts")
	if _, err := d.Table("parts"); err == nil {
		t.Fatal("dropped table must be gone")
	}
	if len(d.TableNames()) != 0 {
		t.Fatalf("TableNames = %v", d.TableNames())
	}
	d.DropTable("parts") // idempotent
}
