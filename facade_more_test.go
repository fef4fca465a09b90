package idivm_test

import (
	"strings"
	"testing"

	"idivm"
)

// Deferred semantics through the public API: the view is stale until
// Maintain runs.
func TestFacadeDeferredStaleness(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW v AS
		SELECT did, pid, price
		FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
		WHERE category = 'phone'`)

	if _, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 11}); err != nil {
		t.Fatal(err)
	}
	rows, _ := d.View("v")
	for _, r := range rows.Data {
		if r[1] == "P1" && r[2] == int64(11) {
			t.Fatal("view must stay stale before Maintain")
		}
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	rows, _ = d.View("v")
	seen := false
	for _, r := range rows.Data {
		if r[1] == "P1" && r[2] == int64(11) {
			seen = true
		}
	}
	if !seen {
		t.Fatal("view must reflect the update after Maintain")
	}
}

// Several views over one database maintained by a single call, with one
// consuming JOIN … ON syntax and an alias self-join.
func TestFacadeMultiViewAndJoinOn(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW lines AS
		SELECT dp.did, p.pid, p.price
		FROM parts p JOIN devices_parts dp ON p.pid = dp.pid`)
	d.MustCreateView(`CREATE VIEW price_pairs AS
		SELECT a.pid, b.pid AS other
		FROM parts a, parts b
		WHERE a.price = b.price AND a.pid <> b.pid`)

	if _, err := d.Update("parts", []any{"P2"}, map[string]any{"price": 10}); err != nil {
		t.Fatal(err)
	}
	stats, err := d.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d views", len(stats))
	}
	for _, v := range []string{"lines", "price_pairs"} {
		if err := d.CheckConsistent(v); err != nil {
			t.Fatal(err)
		}
	}
	pairs, _ := d.View("price_pairs")
	if pairs.Len() != 2 {
		t.Fatalf("equal-price pairs = %d, want 2", pairs.Len())
	}
}

func TestFacadeHavingView(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW pricey AS
		SELECT did, SUM(price) AS cost
		FROM parts NATURAL JOIN devices_parts
		GROUP BY did
		HAVING cost >= 30`)
	rows, _ := d.View("pricey")
	if rows.Len() != 1 {
		t.Fatalf("initial pricey = %d, want 1 (D1 at 30)", rows.Len())
	}
	if _, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistent("pricey"); err != nil {
		t.Fatal(err)
	}
	rows, _ = d.View("pricey")
	if rows.Len() != 2 { // D1 at 50, D2 at 30
		t.Fatalf("pricey after raise = %d, want 2", rows.Len())
	}
}

func TestFacadeUnwrapAndRows(t *testing.T) {
	d := openRunningExample(t)
	dbx, sys := d.Unwrap()
	if dbx == nil || sys == nil {
		t.Fatal("Unwrap returned nils")
	}
	rows, err := d.Query(`SELECT pid, price FROM parts`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || len(rows.Columns) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Value conversion round-trip covers nil/bool/float.
	d.MustCreateTable("misc", idivm.Columns("k", "f", "b", "n"), "k")
	d.MustInsert("misc", 1, 2.5, true, nil)
	got, err := d.Query(`SELECT k, f, b, n FROM misc`)
	if err != nil {
		t.Fatal(err)
	}
	r := got.Data[0]
	if r[0] != int64(1) || r[1] != 2.5 || r[2] != true || r[3] != nil {
		t.Fatalf("round-trip = %v", r)
	}
}

func TestFacadeDuplicateView(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW v AS SELECT pid, price FROM parts`)
	if err := d.CreateView(`CREATE VIEW v AS SELECT pid, price FROM parts`); err == nil {
		t.Fatal("duplicate view must error")
	}
	if err := d.CreateView(`CREATE VIEW broken AS SELECT nosuch FROM parts`); err == nil {
		t.Fatal("bad column must error")
	}
}

// A select list that names two output columns alike is an error from
// CreateView and Query, never a panic out of plan construction (ROADMAP
// item 4a): explicit aliases, derived bare names, repeated aggregates, and
// an aggregate aliased onto a selected group column.
func TestFacadeDuplicateOutputNames(t *testing.T) {
	d := openRunningExample(t)
	for _, sql := range []string{
		`SELECT pid AS x, price AS x FROM parts`,
		`SELECT pid, pid FROM parts`,
		`SELECT parts.pid, devices_parts.pid FROM parts, devices_parts WHERE parts.pid = devices_parts.pid`,
		`SELECT DISTINCT price AS p, pid AS p FROM parts`,
		`SELECT did, SUM(price), SUM(price) FROM parts NATURAL JOIN devices_parts GROUP BY did`,
		`SELECT did, SUM(price) AS s, COUNT(*) AS s FROM parts NATURAL JOIN devices_parts GROUP BY did`,
		`SELECT did AS n, COUNT(*) AS n FROM devices_parts GROUP BY did`,
		`SELECT did, did, COUNT(*) FROM devices_parts GROUP BY did`,
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("CreateView(%q) panicked: %v", sql, r)
				}
			}()
			err := d.CreateView("CREATE VIEW w AS " + sql)
			if err == nil {
				t.Errorf("CreateView(%q) succeeded, want a duplicate-output error", sql)
			} else if !strings.Contains(err.Error(), "duplicate output column") {
				t.Errorf("CreateView(%q): %v, want a duplicate-output error", sql, err)
			}
			if _, err := d.Query(sql); err == nil {
				t.Errorf("Query(%q) succeeded, want an error", sql)
			}
		}()
	}
	// The catalog must not keep a half-registered view around.
	d.MustCreateView(`CREATE VIEW w AS SELECT pid AS x, price AS y FROM parts`)
}
