package idivm_test

import (
	"strings"
	"testing"

	"idivm"
	"idivm/internal/algebra"
	"idivm/internal/sqlview"
)

func openRunningExample(t testing.TB) *idivm.DB {
	t.Helper()
	d := idivm.Open()
	d.MustCreateTable("parts", idivm.Columns("pid", "price"), "pid")
	d.MustCreateTable("devices", idivm.Columns("did", "category"), "did")
	d.MustCreateTable("devices_parts", idivm.Columns("did", "pid"), "did", "pid")

	d.MustInsert("parts", "P1", 10)
	d.MustInsert("parts", "P2", 20)
	d.MustInsert("devices", "D1", "phone")
	d.MustInsert("devices", "D2", "phone")
	d.MustInsert("devices", "D3", "tablet")
	d.MustInsert("devices_parts", "D1", "P1")
	d.MustInsert("devices_parts", "D2", "P1")
	d.MustInsert("devices_parts", "D1", "P2")
	return d
}

func TestFacadeEndToEnd(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`
		CREATE VIEW v AS
		SELECT did, pid, price
		FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
		WHERE category = 'phone'`)

	rows, err := d.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("initial view rows = %d, want 3", rows.Len())
	}

	// The paper's running change: P1 price 10 → 11.
	if ok, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 11}); err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	stats, err := d.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].DiffTuples != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := d.CheckConsistent("v"); err != nil {
		t.Fatal(err)
	}
	rows, _ = d.View("v")
	updated := 0
	for _, r := range rows.Data {
		if r[1] == "P1" && r[2] == int64(11) {
			updated++
		}
	}
	if updated != 2 {
		t.Fatalf("expected both P1 rows updated, got %d\n%v", updated, rows.Data)
	}
}

func TestFacadeAggregateViewAndScript(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`
		CREATE VIEW cost AS
		SELECT devices_parts.did, SUM(price) AS total
		FROM parts, devices_parts, devices
		WHERE parts.pid = devices_parts.pid
		  AND devices_parts.did = devices.did
		  AND category = 'phone'
		GROUP BY devices_parts.did`)

	script, err := d.Script("cost")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "CACHE") {
		t.Fatalf("aggregate view script should declare a cache:\n%s", script)
	}

	d.MustInsert("parts", "P3", 5)
	d.MustInsert("devices_parts", "D2", "P3")
	if _, err := d.Delete("devices_parts", "D1", "P2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistent("cost"); err != nil {
		t.Fatal(err)
	}
	rows, _ := d.View("cost")
	got := map[any]any{}
	for _, r := range rows.Data {
		got[r[0]] = r[1]
	}
	if got["D1"] != int64(10) || got["D2"] != int64(15) {
		t.Fatalf("costs = %v", got)
	}
}

func TestFacadeTupleMode(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`SELECT did, pid, price
		FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
		WHERE category = 'phone'`,
		idivm.WithName("v"), idivm.WithMode(idivm.ModeTuple))
	if _, err := d.Update("parts", []any{"P2"}, map[string]any{"price": 21}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistent("v"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeQuery(t *testing.T) {
	d := openRunningExample(t)
	rows, err := d.Query(`SELECT pid FROM parts WHERE price > 15`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0] != "P2" {
		t.Fatalf("query result = %v", rows.Data)
	}
}

func TestFacadeErrors(t *testing.T) {
	d := openRunningExample(t)
	if err := d.CreateView(`SELECT pid FROM parts`); err == nil {
		t.Fatal("unnamed view must error")
	}
	if err := d.CreateTable("t", idivm.Columns("a")); err == nil {
		t.Fatal("keyless table must error")
	}
	if err := d.Insert("parts", struct{}{}); err == nil {
		t.Fatal("unsupported value type must error")
	}
	if _, err := d.Update("parts", []any{"P1"}, map[string]any{"nope": 1}); err == nil {
		t.Fatal("unknown set column must error")
	}
	if _, err := d.View("missing"); err == nil {
		t.Fatal("missing view must error")
	}
	if _, err := d.Script("missing"); err == nil {
		t.Fatal("missing script must error")
	}
}

// TestFacadeAccessCounter: Query runs a compiled plan from the plan cache
// and charges exactly what the algebra.Eval oracle charges on the same plan,
// on the first (compiling) call and on a cached one.
func TestFacadeAccessCounter(t *testing.T) {
	d := openRunningExample(t)
	dbx, _ := d.Unwrap()
	for _, sql := range []string{
		`SELECT pid FROM parts`,
		`SELECT did FROM devices WHERE category = 'phone'`,
		`SELECT devices_parts.did, parts.price FROM parts, devices_parts WHERE parts.pid = devices_parts.pid`,
	} {
		v, err := sqlview.Parse(sql, dbx)
		if err != nil {
			t.Fatal(err)
		}
		d.ResetAccessCounter()
		if _, err := algebra.Eval(v.Plan, dbx); err != nil {
			t.Fatal(err)
		}
		var want [3]int64
		want[0], want[1], want[2] = d.AccessCounter()
		if want[0] == 0 {
			t.Fatalf("%s: Eval charged no reads", sql)
		}
		for call := 0; call < 2; call++ {
			d.ResetAccessCounter()
			if _, err := d.Query(sql); err != nil {
				t.Fatal(err)
			}
			var got [3]int64
			got[0], got[1], got[2] = d.AccessCounter()
			if got != want {
				t.Fatalf("%s (call %d): Query charged %v, Eval %v", sql, call, got, want)
			}
		}
	}
}

func TestFacadeNullHandling(t *testing.T) {
	d := idivm.Open()
	d.MustCreateTable("t", idivm.Columns("k", "v"), "k")
	d.MustInsert("t", 1, nil)
	d.MustInsert("t", 2, 5)
	rows, err := d.Query(`SELECT k FROM t WHERE v IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0] != int64(1) {
		t.Fatalf("IS NULL result = %v", rows.Data)
	}
}
