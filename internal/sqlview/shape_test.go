package sqlview

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// pointRead is the end-to-end benchmark's spj_price read: a keyed read of
// the SPJ view v of Figure 1b.
const pointRead = "SELECT did, pid, price FROM v WHERE pid = %d"

// pointCatalog holds a table of the SPJ view's schema; a parse reads
// nothing but schemas, so it holds no rows.
func pointCatalog() *db.Database {
	d := db.New()
	d.MustCreateTable("v", rel.NewSchema([]string{"did", "pid", "price"}, []string{"did", "pid"}))
	return d
}

// mustMatchFullParse parses sql through d's shape cache and in full and
// fails unless both give the same view or the same error.
func mustMatchFullParse(t *testing.T, d *db.Database, sql string) *View {
	t.Helper()
	checkShapeCache(t, d, sql)
	v, _ := Parse(sql, d)
	return v
}

// A hit binds each statement's own literals: one template serves every
// key, and -3 and -4 share a shape.
func TestShapeCacheBindsEachStatementsLiterals(t *testing.T) {
	d := pointCatalog()
	for _, sql := range []string{
		"SELECT did, pid, price FROM v WHERE pid = 7",
		"select did, pid, price from v where pid = 8",
		"SELECT did, pid, price FROM v WHERE pid = -3",
		"SELECT did, pid, price FROM v WHERE pid = -4",
		"SELECT did, pid, price FROM v WHERE pid = 7.5",
		"SELECT did, pid, price FROM v WHERE pid = 'x'",
		"SELECT did, pid, price FROM v WHERE pid = 9223372036854775808", // out of range: the full parse's error
	} {
		mustMatchFullParse(t, d, sql)
	}
	// pid = 7 and 8 share a shape; -3 and -4 share one; 7.5 and 'x' each
	// have their own; the out-of-range int was an error, never kept.
	if n := d.Memo().Len(); n != 4 {
		t.Fatalf("%d shapes kept, want 4", n)
	}
	v := mustMatchFullParse(t, d, "SELECT did, pid, price FROM v WHERE pid = -9223372036854775808")
	if !strings.Contains(v.Plan.String(), "-9223372036854775808") {
		t.Fatalf("plan %s lost the smallest int", v.Plan)
	}
}

// The shape key is the token stream: spacing and keyword case do not
// matter, identifiers and literal kinds do, and a quoted identifier is the
// identifier it quotes.
func TestShapeKey(t *testing.T) {
	key := func(src string) string {
		k, _, err := scan(src, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	same := [][2]string{
		{"SELECT a FROM t WHERE b = 1", "select  a\nfrom t where b=2"},
		{`SELECT "a" FROM t`, "SELECT a FROM t"},
		{"SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = 'it''s'"},
		{"SELECT a FROM t WHERE b = -3", "SELECT a FROM t WHERE b = - 4"},
	}
	for _, c := range same {
		if key(c[0]) != key(c[1]) {
			t.Errorf("%q and %q have different shapes", c[0], c[1])
		}
	}
	differ := [][2]string{
		{"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 1.0"},
		{"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = '1'"},
		{"SELECT a FROM t", "SELECT A FROM t"},
		{`SELECT "FROM" FROM t`, "SELECT FROM FROM t"},
		{"SELECT ab FROM t", "SELECT a b FROM t"},
		{"SELECT a FROM t WHERE b = -3", "SELECT a FROM t WHERE b = 3"},
	}
	for _, c := range differ {
		if key(c[0]) == key(c[1]) {
			t.Errorf("%q and %q share a shape", c[0], c[1])
		}
	}
}

// A table dropped and created again under its name, with another schema,
// is a new catalog for the statements over it: the same SQL gets the new
// plan, or the new error, and the stale template is replaced.
func TestShapeCacheTableRedefined(t *testing.T) {
	d := db.New()
	d.MustCreateTable("t", rel.NewSchema([]string{"a", "b"}, []string{"a"}))
	const sql = "SELECT a FROM t WHERE b = 1"
	mustMatchFullParse(t, d, sql)
	mustMatchFullParse(t, d, sql)

	d.DropTable("t")
	d.MustCreateTable("t", rel.NewSchema([]string{"a", "c"}, []string{"a"}))
	if _, err := Parse(sql, d); err == nil || !strings.Contains(err.Error(), `unknown column "b"`) {
		t.Fatalf("redefined t without b: err = %v", err)
	}
	mustMatchFullParse(t, d, sql)

	d.DropTable("t")
	d.MustCreateTable("t", rel.NewSchema([]string{"a", "x", "b"}, []string{"a"}))
	v := mustMatchFullParse(t, d, sql)
	if got := fmt.Sprint(v.Plan.Children()[0].Children()[0].Schema().Attrs); got != "[t.a t.x t.b]" {
		t.Fatalf("scan schema %s, want the redefined table's", got)
	}
	mustMatchFullParse(t, d, "SELECT a FROM t WHERE b = 2")
	if n := d.Memo().Len(); n != 1 {
		t.Fatalf("%d shapes kept, want the one, replaced", n)
	}
}

// Each database keeps its own shapes: two catalogs with equal table names
// and different schemas, parsed alternately, each get their own plans.
func TestShapeCachePerDatabase(t *testing.T) {
	d1, d2 := db.New(), db.New()
	d1.MustCreateTable("t", rel.NewSchema([]string{"a", "b"}, []string{"a"}))
	d2.MustCreateTable("t", rel.NewSchema([]string{"b", "a", "c"}, []string{"b"}))
	for i := 0; i < 3; i++ {
		for _, d := range []*db.Database{d1, d2} {
			mustMatchFullParse(t, d, fmt.Sprintf("SELECT a, b FROM t WHERE b > %d", i))
		}
	}
	v1, _ := Parse("SELECT a, b FROM t WHERE b > 9", d1)
	v2, _ := Parse("SELECT a, b FROM t WHERE b > 9", d2)
	if describe(v1) == describe(v2) {
		t.Fatalf("two catalogs gave one plan:\n%s", describe(v1))
	}
}

// db.Uncharged hands out a new handle on every Table call. A template is
// kept against the stored tables behind the handles, so a statement parsed
// through it hits — the entry stays, and the hit allocates what a hit
// through the database does plus the handle bind resolves v through —, a
// template filled through the database binds through it and the reverse,
// and a table dropped and created again still misses.
func TestShapeCacheThroughUncharged(t *testing.T) {
	sql := func(k int) string { return fmt.Sprintf(pointRead, k) }
	key := func() []byte {
		k, _, err := scan(sql(0), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()
	entry := func(d *db.Database) any {
		e, ok := d.Memo().Get(key)
		if !ok || d.Memo().Len() != 1 {
			t.Fatalf("the memo holds %d shapes, not the point read's", d.Memo().Len())
		}
		return e
	}
	database := func(d *db.Database) Catalog { return d }
	unch := func(d *db.Database) Catalog { return db.Uncharged{Database: d} }
	for _, c := range []struct {
		name       string
		fill, read func(*db.Database) Catalog
		allocs     float64 // TestShapeCacheHitAllocations' five, and Uncharged's handle
	}{
		{"through Uncharged", unch, unch, 6},
		{"filled through the database, read through Uncharged", database, unch, 6},
		{"filled through Uncharged, read through the database", unch, database, 5},
	} {
		d := pointCatalog()
		if _, err := Parse(sql(1), c.fill(d)); err != nil {
			t.Fatal(err)
		}
		filled := entry(d)
		read, src := c.read(d), sql(2)
		runtime.GC()
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(src, read); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.allocs {
			t.Errorf("%s: a parse allocates %v times, want a hit's %v", c.name, got, c.allocs)
		}
		if entry(d) != filled {
			t.Errorf("%s: the parse replaced the template: a miss", c.name)
		}
		v, _ := Parse(sql(3), read)
		if want, _ := Parse(sql(3), uncached{d}); describe(v) != describe(want) {
			t.Errorf("%s: %s, the full parse %s", c.name, describe(v), describe(want))
		}
	}

	d := pointCatalog()
	u := db.Uncharged{Database: d}
	if _, err := Parse(sql(1), u); err != nil {
		t.Fatal(err)
	}
	filled := entry(d)
	d.DropTable("v")
	d.MustCreateTable("v", rel.NewSchema([]string{"did", "pid", "price"}, []string{"did", "pid"}))
	if _, err := Parse(sql(2), u); err != nil {
		t.Fatal(err)
	}
	if entry(d) == filled {
		t.Fatalf("a statement over the re-created table hit the template of the dropped one")
	}
}

// mapCatalog is a Catalog of its own, without a db.Memo.
type mapCatalog map[string]*storage.Handle

func (c mapCatalog) Table(name string) (*storage.Handle, error) {
	if h, ok := c[name]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("no table %q", name)
}

// A Catalog that owns no db.Memo parses every statement in full.
func TestParseWithoutMemo(t *testing.T) {
	d := catalog(t)
	cat := mapCatalog{}
	for _, name := range d.TableNames() {
		cat[name], _ = d.Table(name)
	}
	for _, sql := range []string{
		"SELECT did, pid, price FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices WHERE category = 'phone'",
		"SELECT pid FROM parts WHERE price > -5",
	} {
		for i := 0; i < 2; i++ {
			got, err := Parse(sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Parse(sql, uncached{d})
			if describe(got) != describe(want) {
				t.Fatalf("%q: %s, want %s", sql, describe(got), describe(want))
			}
		}
	}
	if _, err := Parse("SELECT a FROM nothing", cat); err == nil || !strings.Contains(err.Error(), `no table "nothing"`) {
		t.Fatalf("unknown table: err = %v", err)
	}
	if n := d.Memo().Len(); n != 0 {
		t.Fatalf("%d shapes kept through a catalog without a memo", n)
	}
}

// A hit allocates exactly what it returns: the nodes and expressions on
// the paths from the root to the literals, each literal, and the View. The
// rest of the plan — scans, untouched predicates, item lists — is the
// template's.
func TestShapeCacheHitAllocations(t *testing.T) {
	d := catalog(t)
	d.MustCreateTable("v", rel.NewSchema([]string{"did", "pid", "price"}, []string{"did", "pid"}))
	for _, c := range []struct {
		sql    string
		allocs float64
	}{
		// Lit, σ's Cmp, σ, π, View.
		{"SELECT did, pid, price FROM v WHERE pid = %d", 5},
		// Two literals, two Cmps, two σs (one per conjunct), π, View.
		{"SELECT did FROM v WHERE pid = %d AND price > 2", 8},
		// Lit, Cmp, σ over the natural joins, π, View: both joins are shared.
		{"SELECT did, pid, price FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices WHERE price < %d", 5},
		// Lit, Cmp, σ pushed onto parts, both joins above it, π, View; the
		// join predicates and the other scans are shared.
		{"SELECT devices.did, price FROM parts, devices_parts, devices WHERE parts.pid = devices_parts.pid AND devices_parts.did = devices.did AND price < %d", 7},
		// Lit, Cmp, σ, γ (no π: the group column keeps its name), View.
		{"SELECT did, COUNT(*) AS n FROM v WHERE price > %d GROUP BY did", 5},
	} {
		if _, err := Parse(fmt.Sprintf(c.sql, 1), d); err != nil {
			t.Fatal(err)
		}
		sql := fmt.Sprintf(c.sql, 2)
		runtime.GC()
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(sql, d); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.allocs {
			t.Errorf("%q: a hit allocates %v times, want %v", sql, got, c.allocs)
		}
	}
}

// BenchmarkParse parses the end-to-end benchmark's spj_price point read:
// uncached (a Catalog without a db.Memo), as a miss (every statement is of
// a shape the cache no longer holds: the full parse plus the template) and
// as a hit (a new key of a kept shape).
func BenchmarkParse(b *testing.B) {
	d := pointCatalog()
	sqls := make([]string, 1024)
	for i := range sqls {
		sqls[i] = fmt.Sprintf(pointRead, i)
	}
	run := func(b *testing.B, cat Catalog, sql func(i int) string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(sql(i), cat); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		run(b, uncached{d}, func(i int) string { return sqls[i%len(sqls)] })
	})
	b.Run("miss", func(b *testing.B) {
		// Each statement names another column alias: 1024 shapes cycle
		// through the 64-entry cache, each evicted before it comes back.
		shapes := make([]string, len(sqls))
		for i := range shapes {
			shapes[i] = fmt.Sprintf("SELECT did, pid, price AS p%d FROM v WHERE pid = %d", i, i)
		}
		run(b, d, func(i int) string { return shapes[i%len(shapes)] })
	})
	b.Run("hit", func(b *testing.B) {
		run(b, d, func(i int) string { return sqls[i%len(sqls)] })
	})
}

// runRead runs sql through Run on d, reading the post-state, and returns its
// outcome and whether it ran the shape's idle compiled plan.
func runRead(d *db.Database, sql string) (outcome, bool) {
	var hit bool
	o := runOn(d, func() (*rel.Relation, error) {
		r, h, err := Run(sql, d, rel.StatePost, func(p *algebra.ExecPlan) (*rel.Relation, error) { return p.Run(d) })
		hit = h
		return r, err
	})
	return o, hit
}

// One shape over a hot key, where scanning is cheaper than probing, and a
// cold key, where probing is: the compiled plan chooses per run from the
// value bound to it (useIndex), so each bound run charges exactly what a
// fresh compile of its statement charges.
func TestBoundPlanChoosesPerValue(t *testing.T) {
	d := db.New()
	h := d.MustCreateTable("t", rel.NewSchema([]string{"k", "g"}, []string{"k"}))
	const n = 100
	for k := int64(0); k < n; k++ {
		g := int64(1) // the hot key: every row but the last
		if k == n-1 {
			g = 2
		}
		h.MustInsert(rel.Int(k), rel.Int(g))
	}
	sql := func(g int) string { return fmt.Sprintf("SELECT k FROM t WHERE g = %d", g) }
	for i, g := range []int{1, 2, 1, 3, 2, 1} {
		v, err := Parse(sql(g), uncached{d})
		if err != nil {
			t.Fatal(err)
		}
		fresh := compiled(d, v.Plan)
		got, hit := runRead(d, sql(g))
		mustAgree(t, sql(g), "bound", fresh, got)
		if hit != (i > 0) {
			t.Fatalf("read %d (g = %d): hit %v", i, g, hit)
		}
		want := rel.CostCounter{TupleReads: n} // the hot key scans
		if g != 1 {
			want = rel.CostCounter{IndexLookups: 1, TupleReads: int64(got.rows.Len())}
		}
		if got.cost != want {
			t.Fatalf("g = %d charged %v, want %v", g, got.cost, want)
		}
	}
}
