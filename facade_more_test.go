package idivm_test

import (
	"fmt"
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

// A NATURAL JOIN of two sources with no column name in common is an error
// from CreateView and Query, not a panic out of plan construction.
func TestFacadeNaturalJoinWithoutSharedColumns(t *testing.T) {
	d := idivm.Open()
	d.MustCreateTable("a", idivm.Columns("id", "x"), "id")
	d.MustCreateTable("b", idivm.Columns("pk", "y"), "pk")
	d.MustInsert("a", 1, 10)
	d.MustInsert("b", 2, 20)
	const sql = `SELECT x FROM a NATURAL JOIN b`
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%q panicked: %v", sql, r)
		}
	}()
	if _, err := d.Query(sql); err == nil || !strings.Contains(err.Error(), "NATURAL JOIN") {
		t.Errorf("Query: %v, want a NATURAL JOIN error", err)
	}
	if err := d.CreateView("CREATE VIEW v AS " + sql); err == nil || !strings.Contains(err.Error(), "NATURAL JOIN") {
		t.Errorf("CreateView: %v, want a NATURAL JOIN error", err)
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

// Malformed input through the facade is an error, never a panic and never
// a silent "no such row" (ROADMAP aim 3): a table named twice in FROM
// without an alias, a key column that is not a column, a column named
// twice, and a primary key of the wrong length.
func TestFacadeMalformedInput(t *testing.T) {
	d := openRunningExample(t)
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"query: table twice in FROM", func() error { _, err := d.Query(`SELECT parts.pid FROM parts, parts`); return err }, "two FROM sources"},
		{"view: table twice in FROM", func() error { return d.CreateView(`CREATE VIEW twice AS SELECT parts.pid FROM parts, parts`) }, "two FROM sources"},
		{"view: alias twice in JOIN", func() error {
			return d.CreateView(`CREATE VIEW twice AS SELECT x.pid FROM parts x JOIN devices_parts x ON x.pid = x.pid`)
		}, "two FROM sources"},
		{"table: key not a column", func() error { return d.CreateTable("t", idivm.Columns("a"), "b") }, "not one of its columns"},
		{"table: column twice", func() error { return d.CreateTable("t", idivm.Columns("a", "a"), "a") }, "twice"},
		{"update: key too long", func() error {
			_, err := d.Update("parts", []any{"P1", 2}, map[string]any{"price": 1})
			return err
		}, "has key [pid]"},
		{"update: key too short", func() error {
			_, err := d.Update("devices_parts", []any{"D1"}, map[string]any{})
			return err
		}, "has key [did pid]"},
		{"delete: key too long", func() error { _, err := d.Delete("parts", "P1", 2); return err }, "has key [pid]"},
		{"delete: no key", func() error { _, err := d.Delete("parts"); return err }, "has key [pid]"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			if err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		}()
	}
	// Nothing above left a table or view behind, and well-formed calls
	// still work.
	if err := d.CreateTable("t", idivm.Columns("a", "b"), "a"); err != nil {
		t.Fatal(err)
	}
	d.MustCreateView(`CREATE VIEW twice AS SELECT a.pid, b.pid AS other FROM parts a, parts b WHERE a.price = b.price`)
	if ok, err := d.Delete("parts", "nosuch"); ok || err != nil {
		t.Fatalf("delete of a missing key: ok=%v err=%v", ok, err)
	}
}

// The AVG and MIN/MAX rewrites add hidden columns (a#sum, a#cnt, #mult)
// next to the user's; a quoted identifier can spell the same name, and the
// view must still register and stay consistent.
func TestFacadeHiddenAggregateNamesDoNotCollide(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW shadow AS
		SELECT did, AVG(price) AS a, SUM(price) AS "a#sum", COUNT(*) AS "a#cnt"
		FROM parts NATURAL JOIN devices_parts GROUP BY did`)
	d.MustCreateTable("odd", idivm.Columns("k", "g", "#mult"), "k")
	d.MustInsert("odd", 1, 1, 5)
	d.MustInsert("odd", 2, 1, 3)
	d.MustCreateView(`CREATE VIEW lows AS SELECT g, MIN("#mult") AS lo FROM odd GROUP BY g`)
	if _, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 17}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete("odd", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"shadow", "lows"} {
		if err := d.CheckConsistent(v); err != nil {
			t.Error(err)
		}
	}
}

// A SQL-created aggregate view stores its group key under the qualified
// source name (devices.category); SQL over the view — ad-hoc or a view over
// the view — must be able to name that column bare, alias-qualified or
// quoted in full (benchmark/README Finding 7).
func TestFacadeViewGroupKeyReadableFromSQL(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW v AS SELECT category, COUNT(*) AS n FROM devices GROUP BY category`)
	d.MustCreateView(`CREATE VIEW amb AS SELECT a.pid, b.pid, COUNT(*) AS n
		FROM parts a, parts b WHERE a.price = b.price GROUP BY a.pid, b.pid`)
	for _, tc := range []struct {
		sql  string
		want string // fmt.Sprint of the rows, or a substring of the error when err is set
		err  bool
	}{
		{`SELECT category, n FROM v`, "[[phone 2] [tablet 1]]", false},
		{`SELECT n FROM v WHERE category = 'tablet'`, "[[1]]", false},
		{`SELECT v.category, v.n FROM v`, "[[phone 2] [tablet 1]]", false},
		{`SELECT x.category FROM v AS x WHERE x.n = 2`, "[[phone]]", false},
		{`SELECT "devices.category" FROM v`, "[[phone] [tablet]]", false},
		{`SELECT v.devices.category FROM v`, "[[phone] [tablet]]", false},
		{`SELECT "a.pid", n FROM amb`, "[[P1 1] [P2 1]]", false},
		{`SELECT pid FROM amb`, "ambiguous", true},
		{`SELECT amb.pid FROM amb`, "ambiguous", true},
	} {
		rows, err := d.Query(tc.sql)
		switch {
		case tc.err:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Query(%q): error %v, want one containing %q", tc.sql, err, tc.want)
			}
		case err != nil:
			t.Errorf("Query(%q): %v", tc.sql, err)
		case fmt.Sprint(rows.Data) != tc.want:
			t.Errorf("Query(%q) = %v, want %s", tc.sql, rows.Data, tc.want)
		}
	}

	// A view over the view, grouped by that column, registers and is
	// maintained in the same round as its parent.
	if err := d.CreateView(`CREATE VIEW w AS SELECT category, SUM(n) AS total FROM v GROUP BY category`); err != nil {
		t.Fatal(err)
	}
	d.MustInsert("devices", "D4", "tablet")
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"v", "w"} {
		if err := d.CheckConsistent(view); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := d.Query(`SELECT category, total FROM w`)
	if err != nil || fmt.Sprint(rows.Data) != "[[phone 2] [tablet 2]]" {
		t.Fatalf("w = %v, %v", rows, err)
	}
}
