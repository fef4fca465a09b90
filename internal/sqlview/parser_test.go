package sqlview

import (
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

func catalog(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	parts := d.MustCreateTable("parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
	parts.MustInsert(rel.String("P1"), rel.Int(10))
	parts.MustInsert(rel.String("P2"), rel.Int(20))
	devices := d.MustCreateTable("devices", rel.NewSchema([]string{"did", "category"}, []string{"did"}))
	devices.MustInsert(rel.String("D1"), rel.String("phone"))
	devices.MustInsert(rel.String("D2"), rel.String("phone"))
	devices.MustInsert(rel.String("D3"), rel.String("tablet"))
	dp := d.MustCreateTable("devices_parts", rel.NewSchema([]string{"did", "pid"}, []string{"did", "pid"}))
	dp.MustInsert(rel.String("D1"), rel.String("P1"))
	dp.MustInsert(rel.String("D2"), rel.String("P1"))
	dp.MustInsert(rel.String("D1"), rel.String("P2"))
	return d
}

func parseEval(t *testing.T, d *db.Database, sql string) *rel.Relation {
	t.Helper()
	v, err := Parse(sql, d)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	r, err := algebra.Eval(v.Plan, d)
	if err != nil {
		t.Fatalf("eval %q: %v", sql, err)
	}
	return r
}

// The paper's Figure 1b view, written exactly as in the paper.
func TestParseRunningExampleNaturalJoin(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `
		SELECT did, pid, price
		FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
		WHERE category = 'phone'`)
	if r.Len() != 3 {
		t.Fatalf("rows = %d, want 3", r.Len())
	}
	if len(r.Schema.Attrs) != 3 || r.Schema.Attrs[2] != "price" {
		t.Fatalf("schema = %v", r.Schema.Attrs)
	}
}

// The Figure 5b aggregate view via comma joins and WHERE equalities.
func TestParseAggregateView(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `
		SELECT devices_parts.did, SUM(price) AS cost
		FROM parts, devices_parts, devices
		WHERE parts.pid = devices_parts.pid
		  AND devices_parts.did = devices.did
		  AND category = 'phone'
		GROUP BY devices_parts.did`).Sorted()
	if r.Len() != 2 {
		t.Fatalf("groups = %d, want 2:\n%v", r.Len(), r)
	}
	// D1: 10+20=30, D2: 10.
	if !r.Tuples[0][1].Same(rel.Int(30)) && !r.Tuples[1][1].Same(rel.Int(30)) {
		t.Fatalf("missing cost 30: %v", r)
	}
}

func TestParseJoinOn(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `
		SELECT p.pid, d.did
		FROM parts AS p JOIN devices_parts AS dp ON p.pid = dp.pid
		     INNER JOIN devices d ON dp.did = d.did`)
	if r.Len() != 3 {
		t.Fatalf("rows = %d, want 3", r.Len())
	}
}

func TestParseExpressionsAndFunctions(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `
		SELECT pid, price * 2 + 1 AS bumped, abs(price - 15) AS dist
		FROM parts WHERE price >= 10 AND NOT (price > 100)`)
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	i := r.Schema.Index("bumped")
	j := r.Schema.Index("dist")
	if i < 0 || j < 0 {
		t.Fatalf("schema = %v", r.Schema.Attrs)
	}
}

func TestParseDistinct(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `SELECT DISTINCT pid FROM devices_parts`)
	if r.Len() != 2 {
		t.Fatalf("distinct pids = %d, want 2", r.Len())
	}
}

func TestParseCountStarAndAliases(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `
		SELECT did, COUNT(*) AS n, AVG(price) AS avgp, MIN(price) AS lo, MAX(price) AS hi
		FROM parts NATURAL JOIN devices_parts
		GROUP BY did`).Sorted()
	if r.Len() != 2 {
		t.Fatalf("groups = %d", r.Len())
	}
}

func TestParseStringEscapes(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `SELECT did FROM devices WHERE category <> 'pho''ne'`)
	if r.Len() != 3 {
		t.Fatalf("rows = %d", r.Len())
	}
}

// HAVING compiles to a selection above the aggregation, which the IVM
// engine maintains via its σ-over-γ machinery.
func TestParseHaving(t *testing.T) {
	d := catalog(t)
	r := parseEval(t, d, `
		SELECT did, SUM(price) AS cost
		FROM parts NATURAL JOIN devices_parts
		GROUP BY did
		HAVING cost > 15`).Sorted()
	if r.Len() != 1 {
		t.Fatalf("groups over 15 = %d, want 1 (D1 at 30):\n%v", r.Len(), r)
	}
	// HAVING over a group column also works.
	r = parseEval(t, d, `
		SELECT did, COUNT(*) AS n
		FROM devices_parts
		GROUP BY did
		HAVING did <> 'D1'`)
	if r.Len() != 1 {
		t.Fatalf("non-D1 groups = %d, want 1", r.Len())
	}
}

func TestParseHavingThroughIVM(t *testing.T) {
	d := catalog(t)
	v, err := Parse(`
		CREATE VIEW big AS
		SELECT did, SUM(price) AS cost
		FROM parts NATURAL JOIN devices_parts
		GROUP BY did
		HAVING cost > 15`, d)
	if err != nil {
		t.Fatal(err)
	}
	s := ivm.NewSystem(d)
	if _, err := s.RegisterView(v.Name, v.Plan, ivm.ModeID); err != nil {
		t.Fatal(err)
	}
	// Push D2 over the threshold: its group enters the view.
	if _, err := d.Update("parts", []rel.Value{rel.String("P1")},
		[]string{"price"}, []rel.Value{rel.Int(16)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MaintainAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent("big"); err != nil {
		t.Fatal(err)
	}
	vt, _ := d.Table("big")
	if vt.Len() != 2 {
		t.Fatalf("groups = %d, want 2", vt.Len())
	}
}

func TestParseCreateView(t *testing.T) {
	d := catalog(t)
	v, err := Parse(`CREATE VIEW phone_parts AS SELECT pid FROM parts;`, d)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "phone_parts" {
		t.Fatalf("name = %q", v.Name)
	}
}

func TestParseErrors(t *testing.T) {
	d := catalog(t)
	cases := []string{
		`SELECT`,                                               // missing items
		`SELECT pid FROM nosuchtable`,                          // unknown table
		`SELECT nosuchcol FROM parts`,                          // unknown column (fails at plan build)
		`SELECT pid FROM parts WHERE price =`,                  // dangling operator
		`SELECT SUM(price) FROM parts`,                         // aggregate without GROUP BY
		`SELECT pid FROM parts HAVING pid > 1`,                 // HAVING without GROUP BY
		`SELECT did FROM devices, parts WHERE did = frob(pid)`, // unknown function
		`SELECT pid FROM parts WHERE price > 'x`,               // unterminated string
		`SELECT SUM(*) FROM parts GROUP BY pid`,                // SUM(*)
	}
	for _, sql := range cases {
		if v, err := Parse(sql, d); err == nil {
			// Some invalid references only surface at evaluation.
			if _, evalErr := algebra.Eval(v.Plan, d); evalErr == nil {
				t.Errorf("expected error for %q", sql)
			}
		}
	}
}

// A NATURAL JOIN of sources that share no column name would be a cross
// product; the parser rejects it with a positioned error instead.
func TestParseNaturalJoinWithoutSharedColumns(t *testing.T) {
	d := db.New()
	d.MustCreateTable("a", rel.NewSchema([]string{"id", "x"}, []string{"id"}))
	d.MustCreateTable("b", rel.NewSchema([]string{"pk", "y"}, []string{"pk"}))
	_, err := Parse(`SELECT x FROM a NATURAL JOIN b`, d)
	if err == nil {
		t.Fatal("NATURAL JOIN without a shared column must fail")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "sqlview: ") || !strings.Contains(msg, "near position") {
		t.Fatalf("error %q is not a positioned sqlview error", msg)
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	d := catalog(t)
	_, err := Parse(`SELECT pid FROM parts p1, parts p2 WHERE p1.pid = p2.pid`, d)
	if err == nil {
		t.Skip("ambiguity surfaces during plan build")
	}
	if !strings.Contains(err.Error(), "ambiguous") && err != nil {
		// acceptable: some paths report a different error kind
		t.Logf("error: %v", err)
	}
}

// Parsed views must round-trip through the full IVM pipeline.
func TestParsedViewThroughIVM(t *testing.T) {
	d := catalog(t)
	v, err := Parse(`
		CREATE VIEW V AS
		SELECT devices_parts.did, SUM(price) AS cost
		FROM parts, devices_parts, devices
		WHERE parts.pid = devices_parts.pid
		  AND devices_parts.did = devices.did
		  AND category = 'phone'
		GROUP BY devices_parts.did`, d)
	if err != nil {
		t.Fatal(err)
	}
	s := ivm.NewSystem(d)
	if _, err := s.RegisterView(v.Name, v.Plan, ivm.ModeID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Update("parts", []rel.Value{rel.String("P1")},
		[]string{"price"}, []rel.Value{rel.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MaintainAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent(v.Name); err != nil {
		t.Fatal(err)
	}
	vt, _ := d.Table("V")
	row, ok := vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
	if !ok || !row[1].Equal(rel.Int(31)) {
		t.Fatalf("D1 cost = %v, want 31", row)
	}
}

// A minus sign just before a number in operand position is part of the
// literal: b = -3 compares with the constant -3, which index pushdown reads
// as one, not with 0 − 3. Elsewhere a minus is still subtraction.
func TestParseNegativeLiterals(t *testing.T) {
	d := db.New()
	tab := d.MustCreateTable("t", rel.NewSchema([]string{"a", "b"}, []string{"a"}))
	tab.MustInsert(rel.Int(1), rel.Int(-3))
	tab.MustInsert(rel.Int(2), rel.Int(3))
	tab.MustInsert(rel.Int(3), rel.Float(-2.5))
	v, err := Parse("SELECT a FROM t WHERE b = -3", d)
	if err != nil {
		t.Fatal(err)
	}
	sel := v.Plan.Children()[0].(*algebra.Select)
	if cmp, ok := sel.Pred.(expr.Cmp); !ok || cmp.R != expr.Lit(expr.IntLit(-3)) {
		t.Fatalf("predicate %s is not b = the literal -3", sel.Pred)
	}
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{"SELECT a FROM t WHERE b = -3", 1},
		{"SELECT a FROM t WHERE b = - 3", 1},
		{"SELECT a FROM t WHERE b = -2.5", 1},
		{"SELECT a FROM t WHERE b - -3 = 0", 1},
		{"SELECT a FROM t WHERE b -3 = 0", 1},
		{"SELECT a FROM t WHERE b * -1 > 0", 2},
		{"SELECT a FROM t WHERE b > -9223372036854775808", 3},
	} {
		if r := parseEval(t, d, c.sql); r.Len() != c.rows {
			t.Errorf("%q: %d rows, want %d", c.sql, r.Len(), c.rows)
		}
	}
	for _, sql := range []string{
		"SELECT a FROM t WHERE b = -b",
		"SELECT a FROM t WHERE b = -(3)",
		"SELECT a FROM t WHERE b > -9223372036854775809",
		"SELECT a FROM t WHERE b > 9223372036854775808",
	} {
		if _, err := Parse(sql, d); err == nil {
			t.Errorf("%q parsed", sql)
		}
	}
}

// * is an operator, not part of a name: a*b multiplies like a * b, and
// COUNT(*) still counts rows.
func TestParseStarIsNotAnIdentifier(t *testing.T) {
	d := db.New()
	tab := d.MustCreateTable("t", rel.NewSchema([]string{"k", "a", "b"}, []string{"k"}))
	tab.MustInsert(rel.Int(1), rel.Int(2), rel.Int(3))
	tab.MustInsert(rel.Int(2), rel.Int(2), rel.Int(5))
	for _, sql := range []string{"SELECT k, a*b AS x FROM t", "SELECT k, a * b AS x FROM t"} {
		r := parseEval(t, d, sql).Sorted()
		if r.Len() != 2 || !r.Tuples[0][1].Same(rel.Int(6)) || !r.Tuples[1][1].Same(rel.Int(10)) {
			t.Fatalf("%q: %v", sql, r)
		}
	}
	r := parseEval(t, d, "SELECT a, COUNT(*) AS n FROM t GROUP BY a")
	if r.Len() != 1 || !r.Tuples[0][1].Same(rel.Int(2)) {
		t.Fatalf("COUNT(*): %v", r)
	}
}
